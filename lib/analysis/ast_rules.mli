(** The rule families of the static analysis engine ([locald analyze]).

    The first four guard the repo's banned idioms, grounded in the
    Parsetree: literals are constants, so a banned token in a comment
    or string is prose, and resolution is scope-aware ({!Ast_scope}):

    - {!Poly_compare} — structural [=]/[<>] on a [.graph]/[.labels]
      projection, or [Hashtbl.hash] of a [.graph]/[.labels]/[.ids]
      projection: representation equality is not isomorphism.
    - {!Naked_ids_access} — a [.ids] field read (or record pattern)
      outside [lib/graph] and [lib/analysis]; it bypasses the access
      monitor behind {!Analysis.certify}.
    - {!Self_init} — [Random.self_init].
    - {!Decorated_key} — [Memo.create] fed [Hashtbl.hash], [( = )] or
      [compare] as a key function outside [lib/runtime].

    The next five are the families that need binding structure:

    - {!Domain_race} — module-toplevel mutable state (a [ref],
      [Hashtbl.create], [Queue]/[Buffer]/[Stack], an [Array.make], or
      a record later mutated with [<-]) captured inside a function
      literal passed to [Pool.map]/[Pool.submit]/[Domain.spawn]
      without a [Mutex.protect] mediator. Such captures
      race across domains and void the byte-identical-at-any-[--jobs]
      contract. [Atomic.make]/[Mutex.create]/[Domain.DLS] bindings are
      mediators, not findings.
    - {!Nondet_random} — the global-state [Random] operations
      ([Random.int], [bool], [float], [bits], [full_int], ...): their
      hidden state makes results depend on call order. Thread an
      explicit seeded [Random.State] (never flagged) instead.
    - {!Nondet_clock} — [Sys.time]/[Unix.gettimeofday]/[Unix.time]
      outside [lib/runtime/timing.ml]: wall-clock reads are
      nondeterministic inputs; go through [Timing.now]/[Timing.wall],
      which centralise the monotonic-vs-calendar distinction.
    - {!Hashtbl_order} — a [Hashtbl.fold]/[Hashtbl.iter] application
      inside an argument of a digest or checkpoint sink
      ([Digest.string]/[bytes]/[substring], [Shard.result_digest],
      [Checkpoint.append]): hash-table iteration order is
      unspecified, so the folded value leaks it into a pinned digest.
    - {!Checkpoint_guard} — a [let w = Checkpoint.create/resume ... in
      body] whose body reaches [Checkpoint.close] with no [Fun.protect],
      [try], or exception-matching [match] guarding the work between:
      an exception mid-body leaks the writer and loses its tail.

    {!Parse_error} is not a rule a file can break in part: a source
    the compiler's parser rejects is analysed for no rule, and is
    reported as exactly one such finding, whatever rules are
    selected. *)

type rule =
  | Poly_compare
  | Naked_ids_access
  | Self_init
  | Decorated_key
  | Domain_race
  | Nondet_random
  | Nondet_clock
  | Hashtbl_order
  | Checkpoint_guard
  | Parse_error

type severity = Error | Warning

val all : rule list

val name : rule -> string
(** Kebab-case rule id, e.g. ["domain-race"]. *)

val of_name : string -> rule option

val severity : rule -> severity
(** [Hashtbl_order] and [Checkpoint_guard] are [Warning] (they flag a
    structural risk, not a certain defect); every other rule, including
    [Parse_error], is [Error]. Both severities fail the [analyze] gate;
    severity is reporting metadata (text/JSON/SARIF level). *)

val severity_name : severity -> string

val help : rule -> string
(** One-line rationale and the mediated alternative. *)
