let escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let of_labelled ~pp_label lg =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph \"G\" {\n";
  Graph.iter_vertices
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" v
           (escape (Format.asprintf "%a" pp_label (Labelled.label lg v)))))
    (Labelled.graph lg);
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  n%d -- n%d;\n" u v))
    (Graph.edges (Labelled.graph lg));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
