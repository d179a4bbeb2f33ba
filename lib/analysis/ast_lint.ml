module Json = Locald_runtime.Telemetry.Json

type finding = {
  a_file : string;
  a_line : int;
  a_col : int;
  a_rule : Ast_rules.rule;
  a_excerpt : string;
}

type config = {
  c_allow_ids : bool;
  c_allow_decorated : bool;
  c_allow_clock : bool;
  c_rules : Ast_rules.rule list;
}

(* ------------------------------------------------------------------ *)
(* Path policy                                                         *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let norm_path p = String.map (fun c -> if c = '\\' then '/' else c) p

let under_test path =
  let p = norm_path path in
  p = "test" || String.starts_with ~prefix:"test/" p || contains p "/test/"

(* [.ids] access is the representation's own business under lib/graph
   and lib/analysis; raw key functions under lib/runtime, which owns
   the mediated key contract; the clocks under lib/runtime/timing.ml. *)
let ids_allowed_for path =
  let p = norm_path path in
  contains p "lib/graph" || contains p "lib/analysis"

let decorated_allowed_for path = contains (norm_path path) "lib/runtime"

let clock_owner path =
  String.ends_with ~suffix:"lib/runtime/timing.ml" (norm_path path)

let config_for ?(rules = Ast_rules.all) ?(test_allow = []) path =
  let rules =
    if under_test path then
      List.filter (fun r -> not (List.mem r test_allow)) rules
    else rules
  in
  {
    c_allow_ids = ids_allowed_for path;
    c_allow_decorated = decorated_allowed_for path;
    c_allow_clock = clock_owner path;
    c_rules = rules;
  }

(* ------------------------------------------------------------------ *)
(* Rule targets                                                        *)
(* ------------------------------------------------------------------ *)

(* Canonical paths are component lists, never dotted strings, so
   resolution is structural. *)

let random_globals =
  [
    "int"; "bool"; "float"; "bits"; "bits32"; "bits64"; "full_int"; "int32";
    "int64"; "nativeint"; "char";
  ]

let clock_paths =
  [ [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ] ]

let digest_sinks =
  [
    [ "Digest"; "string" ];
    [ "Digest"; "bytes" ];
    [ "Digest"; "substring" ];
    [ "Shard"; "digest" ];
    [ "Shard"; "result_digest" ];
    [ "Checkpoint"; "append" ];
  ]

let hashtbl_iterators = [ [ "Hashtbl"; "fold" ]; [ "Hashtbl"; "iter" ] ]

let spawners =
  [
    [ "Pool"; "map" ];
    [ "Pool"; "submit" ];
    [ "Domain"; "spawn" ];
  ]

(* Constructors whose result is shared mutable state when bound at
   module toplevel. Atomic.make / Mutex.create / Domain.DLS are
   mediators and deliberately absent. *)
let mutable_ctors =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
  ]

let writer_openers = [ [ "Checkpoint"; "create" ]; [ "Checkpoint"; "resume" ] ]

(* ------------------------------------------------------------------ *)
(* Analysis context                                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  file : string;
  conf : config;
  lines : string array;
  mutable scope : Ast_scope.t;
  mutable mutables : string list;
      (* module-toplevel mutable bindings of this file *)
  mutable out : finding list;
}

let enabled ctx r =
  List.mem r ctx.conf.c_rules
  &&
  match (r : Ast_rules.rule) with
  | Naked_ids_access -> not ctx.conf.c_allow_ids
  | Decorated_key -> not ctx.conf.c_allow_decorated
  | Nondet_clock -> not ctx.conf.c_allow_clock
  | _ -> true

let allow_marker = "locald-lint: allow"

let line_at lines n =
  if n >= 1 && n <= Array.length lines then lines.(n - 1) else ""

let finding ~file ~lines rule (pos : Lexing.position) =
  {
    a_file = file;
    a_line = pos.pos_lnum;
    a_col = pos.pos_cnum - pos.pos_bol;
    a_rule = rule;
    a_excerpt = String.trim (line_at lines pos.pos_lnum);
  }

let report ctx rule (loc : Location.t) =
  let pos = loc.loc_start in
  if
    enabled ctx rule
    && not (contains (line_at ctx.lines pos.pos_lnum) allow_marker)
  then ctx.out <- finding ~file:ctx.file ~lines:ctx.lines rule pos :: ctx.out

(* ------------------------------------------------------------------ *)
(* Deep sub-expression queries                                         *)
(* ------------------------------------------------------------------ *)

(* All identifier occurrences anywhere under an expression. Used by
   rules that ask whether a subtree mentions a target path; candidate
   resolution uses the scope at the query site — inner opens in the
   subtree only widen what a later full visit sees, so the
   over-approximation stays one-sided. *)
let deep_idents e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ex ->
          (match ex.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident l -> acc := l.Location.txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it e;
  List.rev !acc

let mentions sc e targets =
  List.exists
    (fun lid -> List.exists (fun t -> Ast_scope.matches sc lid t) targets)
    (deep_idents e)

let exception_case (c : Parsetree.case) =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

(* Is any part of [body] under an exception guard: a [Fun.protect], a
   [try], or a [match] with an [exception] case? Coarse by design —
   the rule warns about a shape, the guard search errs to silence. *)
let guarded sc body =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_try _ -> found := true
          | Pexp_match (_, cases) when List.exists exception_case cases ->
              found := true
          | Pexp_ident l when Ast_scope.matches sc l.txt [ "Fun"; "protect" ]
            ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it body;
  !found

(* Free occurrences of toplevel-mutable names inside a function
   literal: names rebound anywhere inside the literal don't count, and
   a [Mutex.protect] application prunes its whole subtree (the state
   is mediated there). One report per name, at its first occurrence. *)
let closure_captures sc mutables fn =
  let bound = ref [] and caps = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.Parsetree.ppat_desc with
          | Ppat_var { txt; _ } -> bound := txt :: !bound
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
      expr =
        (fun it ex ->
          match ex.Parsetree.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident l; _ }, _)
            when Ast_scope.matches sc l.txt [ "Mutex"; "protect" ] ->
              ()
          | Pexp_ident { txt = Longident.Lident n; _ }
            when List.mem n mutables ->
              caps := (n, ex.pexp_loc) :: !caps
          | _ -> Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it fn;
  List.rev !caps
  |> List.filter (fun (n, _) -> not (List.mem n !bound))
  |> List.fold_left
       (fun acc (n, loc) ->
         if List.mem_assoc n acc then acc else (n, loc) :: acc)
       []
  |> List.rev |> List.map snd

let rec function_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e', _) -> function_literal e'
  | _ -> false

let last_component lid =
  match lid with
  | Longident.Lident s | Longident.Ldot (_, s) -> Some s
  | Longident.Lapply _ -> None

(* Payload projections, per rule. Structural [=] on an [ids] array is
   representation equality and that is the intended notion, so the
   comparison rule covers only [graph]/[labels]; [Hashtbl.hash] is
   not isomorphism-invariant on any of the three. *)
let compared_projection (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> (
      match last_component txt with
      | Some ("labels" | "graph") -> true
      | _ -> false)
  | _ -> false

let hashed_projection (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> (
      match last_component txt with
      | Some ("labels" | "graph" | "ids") -> true
      | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Pass 1: module-toplevel mutable state                               *)
(* ------------------------------------------------------------------ *)

let rec unconstrained (e : Parsetree.expression) =
  match e.pexp_desc with Pexp_constraint (e', _) -> unconstrained e' | _ -> e

let ctor_path (e : Parsetree.expression) =
  match (unconstrained e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident l; _ }, _) -> (
      match Ast_scope.flatten l.txt with
      | Some p -> Some (Ast_scope.canonical p)
      | None -> None)
  | _ -> None

let collect_mutables str =
  let ctors = ref [] and records = ref [] and set_targets = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun it si ->
          (match si.Parsetree.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt; _ } -> (
                      match ctor_path vb.pvb_expr with
                      | Some p when List.mem p mutable_ctors ->
                          ctors := txt :: !ctors
                      | _ -> (
                          match (unconstrained vb.pvb_expr).pexp_desc with
                          | Pexp_record _ -> records := txt :: !records
                          | _ -> ()))
                  | _ -> ())
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
      expr =
        (fun it ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_setfield
              ({ pexp_desc = Pexp_ident { txt = Longident.Lident n; _ }; _ },
               _, _) ->
              set_targets := n :: !set_targets
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.structure it str;
  !ctors @ List.filter (fun n -> List.mem n !set_targets) !records

(* ------------------------------------------------------------------ *)
(* Rule checks at a node                                               *)
(* ------------------------------------------------------------------ *)

let ident_rules ctx lid loc =
  let sc = ctx.scope in
  if Ast_scope.matches sc lid [ "Random"; "self_init" ] then
    report ctx Self_init loc;
  if
    List.exists (fun op -> Ast_scope.matches sc lid [ "Random"; op ])
      random_globals
  then report ctx Nondet_random loc;
  if List.exists (fun p -> Ast_scope.matches sc lid p) clock_paths then
    report ctx Nondet_clock loc

let apply_rules ctx (e : Parsetree.expression) f args =
  let sc = ctx.scope in
  let fid target =
    match f.Parsetree.pexp_desc with
    | Pexp_ident l -> Ast_scope.matches sc l.txt target
    | _ -> false
  in
  let positional =
    List.filter_map
      (function Asttypes.Nolabel, a -> Some a | _ -> None)
      args
  in
  if (fid [ "=" ] || fid [ "<>" ]) && List.exists compared_projection positional
  then report ctx Poly_compare e.pexp_loc;
  if
    fid [ "Hashtbl"; "hash" ]
    && (match positional with a :: _ -> hashed_projection a | [] -> false)
  then report ctx Poly_compare e.pexp_loc;
  if fid [ "Memo"; "create" ] then begin
    (* The identifier an argument evaluates to, looking through
       constraints and local opens — [~hash:(let open Hashtbl in
       hash)] denotes the banned path just as surely. *)
    let rec ident_under sc (ex : Parsetree.expression) =
      match ex.pexp_desc with
      | Pexp_ident l -> Some (sc, l.txt)
      | Pexp_constraint (ex', _) -> ident_under sc ex'
      | Pexp_open
          ({ popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ }, ex') ->
          let sc =
            List.fold_left Ast_scope.open_module sc
              (Ast_scope.resolve sc lid.txt)
          in
          ident_under sc ex'
      | _ -> None
    in
    let is_ident ex targets =
      match ident_under sc ex with
      | Some (sc', lid) ->
          List.exists (fun t -> Ast_scope.matches sc' lid t) targets
      | None -> false
    in
    if
      List.exists
        (function
          | Asttypes.Labelled "hash", ex ->
              is_ident ex [ [ "Hashtbl"; "hash" ] ]
          | Asttypes.Labelled "equal", ex ->
              is_ident ex [ [ "=" ]; [ "compare" ] ]
          | _ -> false)
        args
    then report ctx Decorated_key e.pexp_loc
  end;
  if
    List.exists fid digest_sinks
    && List.exists (fun (_, a) -> mentions sc a hashtbl_iterators) args
  then report ctx Hashtbl_order e.pexp_loc;
  if List.exists fid spawners && ctx.mutables <> [] then
    List.iter
      (fun (_, a) ->
        if function_literal a then
          List.iter
            (fun loc -> report ctx Domain_race loc)
            (closure_captures sc ctx.mutables a))
      args

let let_rules ctx vbs body =
  let sc = ctx.scope in
  let opens_writer (vb : Parsetree.value_binding) =
    mentions sc vb.pvb_expr writer_openers
  in
  match List.find_opt opens_writer vbs with
  | Some vb ->
      if
        mentions sc body [ [ "Checkpoint"; "close" ] ]
        && not (guarded sc body)
      then report ctx Checkpoint_guard vb.pvb_loc
  | None -> ()

let check_expr ctx (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident l -> ident_rules ctx l.txt e.pexp_loc
  | Pexp_field (_, lid) -> (
      match last_component lid.txt with
      | Some "ids" -> report ctx Naked_ids_access lid.loc
      | _ -> ())
  | Pexp_apply (f, args) -> apply_rules ctx e f args
  | Pexp_let (_, vbs, body) -> let_rules ctx vbs body
  | _ -> ()

let pat_rules ctx (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_record (fields, _) ->
      List.iter
        (fun ((lid : _ Location.loc), _) ->
          match last_component lid.txt with
          | Some "ids" -> report ctx Naked_ids_access lid.loc
          | _ -> ())
        fields
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The scope-threading walker                                          *)
(* ------------------------------------------------------------------ *)

let make_iterator ctx =
  let super = Ast_iterator.default_iterator in
  let with_scope f =
    let saved = ctx.scope in
    f ();
    ctx.scope <- saved
  in
  let bind_vbs vbs =
    List.iter
      (fun (vb : Parsetree.value_binding) ->
        ctx.scope <- Ast_scope.bind_pattern ctx.scope vb.pvb_pat)
      vbs
  in
  let do_open lid =
    (* Open every candidate reading of the module path (an open through
       an alias opens the alias's target). *)
    List.iter
      (fun p -> ctx.scope <- Ast_scope.open_module ctx.scope p)
      (Ast_scope.resolve ctx.scope lid)
  in
  let case (it : Ast_iterator.iterator) (c : Parsetree.case) =
    with_scope (fun () ->
        it.pat it c.pc_lhs;
        ctx.scope <- Ast_scope.bind_pattern ctx.scope c.pc_lhs;
        Option.iter (it.expr it) c.pc_guard;
        it.expr it c.pc_rhs)
  in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    check_expr ctx e;
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) ->
        with_scope (fun () ->
            if rf = Asttypes.Recursive then bind_vbs vbs;
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                it.pat it vb.pvb_pat;
                it.expr it vb.pvb_expr)
              vbs;
            if rf = Asttypes.Nonrecursive then bind_vbs vbs;
            it.expr it body)
    | Pexp_fun (_, default, pat, body) ->
        Option.iter (it.expr it) default;
        with_scope (fun () ->
            it.pat it pat;
            ctx.scope <- Ast_scope.bind_pattern ctx.scope pat;
            it.expr it body)
    | Pexp_function cases -> List.iter (case it) cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        it.expr it scrut;
        List.iter (case it) cases
    | Pexp_open
        ({ popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ }, body) ->
        with_scope (fun () ->
            do_open lid.txt;
            it.expr it body)
    | Pexp_letmodule ({ txt = name; _ }, me, body) ->
        it.module_expr it me;
        with_scope (fun () ->
            (match name with
            | Some name ->
                let alias =
                  match me.pmod_desc with
                  | Pmod_ident l -> Ast_scope.flatten l.txt
                  | _ -> None
                in
                ctx.scope <- Ast_scope.bind_module ctx.scope ~name ~alias
            | None -> ());
            it.expr it body)
    | _ -> super.expr it e
  in
  let pat (it : Ast_iterator.iterator) p =
    pat_rules ctx p;
    super.pat it p
  in
  let structure_item (it : Ast_iterator.iterator)
      (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        do_open lid.txt
    | Pstr_module mb ->
        (match mb.pmb_expr.pmod_desc with
        | Pmod_ident _ -> ()
        | _ ->
            let saved = ctx.scope in
            it.module_expr it mb.pmb_expr;
            ctx.scope <- saved);
        (match mb.pmb_name.txt with
        | Some name ->
            let alias =
              match mb.pmb_expr.pmod_desc with
              | Pmod_ident l -> Ast_scope.flatten l.txt
              | _ -> None
            in
            ctx.scope <- Ast_scope.bind_module ctx.scope ~name ~alias
        | None -> ())
    | Pstr_value (rf, vbs) ->
        if rf = Asttypes.Recursive then bind_vbs vbs;
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            it.pat it vb.pvb_pat;
            it.expr it vb.pvb_expr)
          vbs;
        if rf = Asttypes.Nonrecursive then bind_vbs vbs
    | _ -> super.structure_item it si
  in
  { super with expr; pat; structure_item; case }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sort_findings fs =
  List.sort
    (fun a b ->
      match compare a.a_file b.a_file with
      | 0 -> (
          match compare a.a_line b.a_line with
          | 0 -> (
              match compare a.a_col b.a_col with
              | 0 -> compare a.a_rule b.a_rule
              | c -> c)
          | c -> c)
      | c -> c)
    fs

let parse_with parser ~file text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf file;
  parser lexbuf

(* Where the parser gave up: the location of its error report, or the
   head of the file for an exception it did not register. *)
let error_position exn =
  match Location.error_of_exn exn with
  | Some (`Ok err) -> err.Location.main.loc.loc_start
  | Some `Already_displayed | None ->
      { Lexing.dummy_pos with pos_lnum = 1; pos_cnum = 0 }

let scan_string ?(file = "<string>") ~config text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  (* A rejected file was analysed for no rule: one finding, whatever
     the config selects. *)
  let parse_error exn =
    [ finding ~file ~lines Ast_rules.Parse_error (error_position exn) ]
  in
  if Filename.check_suffix file ".mli" then
    (* Interfaces carry no expressions; parsing is the whole check. *)
    match parse_with Parse.interface ~file text with
    | _ -> []
    | exception exn -> parse_error exn
  else
    match parse_with Parse.implementation ~file text with
    | str ->
        let ctx =
          {
            file;
            conf = config;
            lines;
            scope = Ast_scope.initial;
            mutables = collect_mutables str;
            out = [];
          }
        in
        let it = make_iterator ctx in
        it.structure it str;
        sort_findings ctx.out
    | exception exn -> parse_error exn

let read_file path = In_channel.with_open_bin path In_channel.input_all

let source_file path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let skip_dir name =
  name = "_build" || name = ".git" || name = "_opam" || name = "node_modules"

let rec collect acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if skip_dir entry then acc
           else collect acc (Filename.concat path entry))
         acc
  else if source_file path then path :: acc
  else acc

let scan_file ?rules ?test_allow path =
  let config = config_for ?rules ?test_allow path in
  scan_string ~file:path ~config (read_file path)

let scan_tree ?rules ?test_allow roots =
  List.fold_left collect [] roots
  |> List.rev
  |> List.concat_map (scan_file ?rules ?test_allow)

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.a_file f.a_line
    (Ast_rules.name f.a_rule) f.a_excerpt

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

let finding_json f =
  Json.Obj
    [
      ("file", Json.String f.a_file);
      ("line", Json.Int f.a_line);
      ("col", Json.Int f.a_col);
      ("rule", Json.String (Ast_rules.name f.a_rule));
      ( "severity",
        Json.String (Ast_rules.severity_name (Ast_rules.severity f.a_rule)) );
      ("excerpt", Json.String f.a_excerpt);
      ("help", Json.String (Ast_rules.help f.a_rule));
    ]

let sarif findings =
  let level r = Ast_rules.severity_name (Ast_rules.severity r) in
  let rules =
    List.map
      (fun r ->
        Json.Obj
          [
            ("id", Json.String (Ast_rules.name r));
            ("shortDescription", Json.Obj [ ("text", Json.String (Ast_rules.help r)) ]);
            ("defaultConfiguration", Json.Obj [ ("level", Json.String (level r)) ]);
          ])
      Ast_rules.all
  in
  let result f =
    Json.Obj
      [
        ("ruleId", Json.String (Ast_rules.name f.a_rule));
        ("level", Json.String (level f.a_rule));
        ( "message",
          Json.Obj
            [
              ( "text",
                Json.String
                  (Printf.sprintf "[%s] %s" (Ast_rules.name f.a_rule)
                     f.a_excerpt) );
            ] );
        ( "locations",
          Json.List
            [
              Json.Obj
                [
                  ( "physicalLocation",
                    Json.Obj
                      [
                        ( "artifactLocation",
                          Json.Obj [ ("uri", Json.String f.a_file) ] );
                        ( "region",
                          Json.Obj
                            [
                              ("startLine", Json.Int f.a_line);
                              ("startColumn", Json.Int (f.a_col + 1));
                            ] );
                      ] );
                ];
            ] );
      ]
  in
  Json.Obj
    [
      ("version", Json.String "2.1.0");
      ("$schema", Json.String "https://json.schemastore.org/sarif-2.1.0.json");
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.String "locald-analyze");
                            ("rules", Json.List rules);
                          ] );
                    ] );
                ("results", Json.List (List.map result findings));
              ];
          ] );
    ]
