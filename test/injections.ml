(* The test tree's own enumerator of injective identifier assignments:
   every injective [n]-tuple over [0 .. bound-1], in lexicographic
   order, built by plain recursion over the candidate values. It
   shares no code with the library's rank arithmetic
   ([Orbit.unrank], [Orbit.next_injection]), so the oracles that fold
   over it check that arithmetic instead of repeating it. Empty when
   [bound < n]. *)
let all ~n ~bound : int array Seq.t =
  let rec extend prefix k () =
    if k = n then Seq.Cons (Array.of_list (List.rev prefix), Seq.empty)
    else
      Seq.concat_map
        (fun id ->
          if List.mem id prefix then Seq.empty
          else extend (id :: prefix) (k + 1))
        (Seq.init bound Fun.id)
        ()
  in
  extend [] 0
