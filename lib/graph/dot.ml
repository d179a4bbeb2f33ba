let escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let render ?(name = "G") ~node_attrs g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph \"%s\" {\n" (escape name));
  Graph.iter_vertices
    (fun v -> Buffer.add_string buf (Printf.sprintf "  n%d [%s];\n" v (node_attrs v)))
    g;
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  n%d -- n%d;\n" u v))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let of_graph ?name g =
  render ?name ~node_attrs:(fun v -> Printf.sprintf "label=\"%d\"" v) g

let of_labelled ?name ~pp_label lg =
  render ?name
    ~node_attrs:(fun v ->
      Printf.sprintf "label=\"%s\""
        (escape (Format.asprintf "%a" pp_label (Labelled.label lg v))))
    (Labelled.graph lg)

let of_view ?name ~pp_label (view : 'a View.t) =
  (* Through the accessor, so a monitor sees the id read. *)
  let ids = View.ids view in
  render ?name
    ~node_attrs:(fun v ->
      let label = Format.asprintf "%a" pp_label view.View.labels.(v) in
      let id_part =
        match ids with
        | Some ids -> Printf.sprintf " id=%d" ids.(v)
        | None -> ""
      in
      let shape = if v = view.View.center then ", shape=doublecircle" else "" in
      Printf.sprintf "label=\"%s%s\"%s" (escape label) id_part shape)
    view.View.graph
