type 'a t = {
  graph : Graph.t;
  labels : 'a array;
}

let make graph labels =
  if Array.length labels <> Graph.order graph then
    raise
      (Graph.Invalid_graph
         (Printf.sprintf "labelled graph: %d labels for %d nodes"
            (Array.length labels) (Graph.order graph)));
  { graph; labels }

let const graph x = make graph (Array.make (Graph.order graph) x)
let init graph f = make graph (Array.init (Graph.order graph) f)
let graph lg = lg.graph
let label lg v = lg.labels.(v)
let labels lg = lg.labels
let order lg = Graph.order lg.graph
let map f lg = { lg with labels = Array.map f lg.labels }
let mapi f lg = { lg with labels = Array.mapi f lg.labels }

let relabel_nodes lg perm =
  let g = Graph.relabel lg.graph perm in
  let labels = Array.copy lg.labels in
  Array.iteri (fun v image -> labels.(image) <- lg.labels.(v)) perm;
  make g labels

let induced lg vs =
  let g, back = Graph.induced lg.graph vs in
  (make g (Array.map (fun v -> lg.labels.(v)) back), back)

let disjoint_union a b =
  make (Graph.disjoint_union a.graph b.graph) (Array.append a.labels b.labels)

let equal eq a b = Graph.equal a.graph b.graph && Array.for_all2 eq a.labels b.labels

let pp pp_label ppf lg =
  Format.fprintf ppf "@[<v 2>labelled %a" Graph.pp lg.graph;
  Array.iteri (fun v x -> Format.fprintf ppf "@ x(%d)=%a" v pp_label x) lg.labels;
  Format.fprintf ppf "@]"
