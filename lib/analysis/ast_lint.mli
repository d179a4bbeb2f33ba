(** The static analysis engine behind [locald analyze].

    It parses each source with the compiler's own parser
    ([Parse.implementation]/[Parse.interface]), walks the Parsetree
    with [Ast_iterator], and resolves identifiers through an
    open/alias-aware scope ({!Ast_scope}). Rules therefore fire on
    what a name {e denotes}, not on what it looks like: [let open
    Hashtbl in hash] is caught, a locally shadowed [Random] is not,
    and a banned token in a comment or string is never a use because
    literals are constants in the tree.

    Pipeline per file: read → parse → scope-threaded visit → rule
    checks at expression/pattern nodes → findings sorted by position.
    A file the parser rejects is one {!Ast_rules.Parse_error} finding
    at the line the parser reports, so the gate never passes a broken
    tree. The rule set is {!Ast_rules.all}; path policies
    ([lib/graph]/[lib/analysis] own their representation,
    [lib/runtime] owns key functions, [lib/runtime/timing.ml] owns the
    clocks) live in {!config_for}. *)

type finding = {
  a_file : string;
  a_line : int;  (** 1-based *)
  a_col : int;  (** 0-based, editor convention *)
  a_rule : Ast_rules.rule;
  a_excerpt : string;  (** the offending line, trimmed *)
}

type config = {
  c_allow_ids : bool;  (** disable {!Ast_rules.Naked_ids_access} *)
  c_allow_decorated : bool;  (** disable {!Ast_rules.Decorated_key} *)
  c_allow_clock : bool;  (** disable {!Ast_rules.Nondet_clock} *)
  c_rules : Ast_rules.rule list;  (** rules to run *)
}

val config_for :
  ?rules:Ast_rules.rule list ->
  ?test_allow:Ast_rules.rule list ->
  string ->
  config
(** The policy for a path: [c_allow_ids] iff it is under [lib/graph]
    or [lib/analysis], [c_allow_decorated] iff it is under
    [lib/runtime], [c_allow_clock] iff it is [lib/runtime/timing.ml].
    [rules] (default {!Ast_rules.all}) selects the families to run;
    [test_allow] (default none) lists rules additionally permitted for
    paths under [test/] — the knob for deliberately-hostile test
    fixtures. *)

val under_test : string -> bool
(** Is the path inside a [test] directory? (What [test_allow] and the
    CLI [--allow-test] knob key on.) *)

val allow_marker : string
(** A raw source line containing this marker, [locald-lint: allow],
    is exempt from every rule but {!Ast_rules.Parse_error}. *)

val scan_string : ?file:string -> config:config -> string -> finding list
(** Analyse one source text. [.mli] files (by [file] suffix) are
    parsed as interfaces — they contain no expressions, so parsing is
    validation. A text the parser rejects yields exactly one
    {!Ast_rules.Parse_error} finding at the parser's error position,
    whatever [config] selects. *)

val scan_file :
  ?rules:Ast_rules.rule list ->
  ?test_allow:Ast_rules.rule list ->
  string ->
  finding list

val scan_tree :
  ?rules:Ast_rules.rule list ->
  ?test_allow:Ast_rules.rule list ->
  string list ->
  finding list
(** Analyse every [.ml] and [.mli] under the given roots (skipping
    [_build], [.git], [_opam] and [node_modules]), in sorted path
    order. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] excerpt] — editor-clickable, one line. *)

(** {1 Machine-readable output} *)

val finding_json : finding -> Locald_runtime.Telemetry.Json.t
(** [{"file", "line", "col", "rule", "severity", "excerpt", "help"}] —
    one object per finding, emitted one per line by the CLI's
    [--json]. *)

val sarif : finding list -> Locald_runtime.Telemetry.Json.t
(** A minimal SARIF 2.1.0 log (one run, driver [locald-analyze], rule
    metadata from {!Ast_rules}) for code-scanning upload. *)
