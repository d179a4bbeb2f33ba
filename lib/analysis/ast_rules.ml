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

let all =
  [
    Poly_compare; Naked_ids_access; Self_init; Decorated_key; Domain_race;
    Nondet_random; Nondet_clock; Hashtbl_order; Checkpoint_guard; Parse_error;
  ]

let name = function
  | Poly_compare -> "poly-compare"
  | Naked_ids_access -> "naked-ids-access"
  | Self_init -> "self-init"
  | Decorated_key -> "decorated-key"
  | Domain_race -> "domain-race"
  | Nondet_random -> "nondet-random"
  | Nondet_clock -> "nondet-clock"
  | Hashtbl_order -> "hashtbl-order"
  | Checkpoint_guard -> "checkpoint-guard"
  | Parse_error -> "parse-error"

let of_name s = List.find_opt (fun r -> name r = s) all

let severity = function
  | Hashtbl_order | Checkpoint_guard -> Warning
  | Poly_compare | Naked_ids_access | Self_init | Decorated_key | Domain_race
  | Nondet_random | Nondet_clock | Parse_error ->
      Error

let severity_name = function Error -> "error" | Warning -> "warning"

let help = function
  | Poly_compare ->
      "structural =/<>/Hashtbl.hash on a Graph.t/View.t/Labelled.t payload; \
       use Graph.equal, Iso.views_isomorphic, Iso.view_signature or a Canon \
       key"
  | Naked_ids_access ->
      ".ids field access bypasses the access monitor; use \
       View.ids/View.id/View.center_id"
  | Self_init ->
      "nondeterministic RNG seeding; thread an explicit Random.State instead"
  | Decorated_key ->
      "raw Hashtbl.hash / polymorphic equality as a decide-once memo key \
       function outside lib/runtime; use View.fingerprint/equal_repr or a \
       Canon key (Memo.structural_hash / structural_equal for label \
       components)"
  | Domain_race ->
      "module-toplevel mutable state captured in a closure passed to \
       Pool.map/Domain.spawn; mediate with Atomic, Mutex.protect or \
       Domain-local state, or thread the state through the fan-out"
  | Nondet_random ->
      "global-state Random operation; thread an explicit seeded \
       Random.State instead"
  | Nondet_clock ->
      "raw wall-clock read; use Timing.now (monotonic durations) or \
       Timing.wall (calendar stamps) from lib/runtime/timing.ml"
  | Hashtbl_order ->
      "Hashtbl iteration feeding a digest or checkpoint record leaks \
       unspecified table order into a pinned result; fold into a \
       sorted list first"
  | Checkpoint_guard ->
      "work between Checkpoint open and close is not exception-safe; \
       wrap it in Fun.protect ~finally:(fun () -> Checkpoint.close w)"
  | Parse_error ->
      "the compiler's parser rejected this file, so no rule ran on it; fix \
       the syntax error"
