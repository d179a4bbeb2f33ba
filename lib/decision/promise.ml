type 'a t = {
  name : string;
  promise : 'a Locald_graph.Labelled.t -> bool;
  mem : 'a Locald_graph.Labelled.t -> bool;
}

let make ~name ~promise ~mem = { name; promise; mem }
