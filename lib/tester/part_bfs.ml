open Graphlib
module S = Partition.State
module P = Partition.Prims
module M = Partition.Msg

type t = {
  dist : int array;
  nbr_level : (int * int) list array;
  depth_bound : int;
}

let iter_intra st (nd : S.node) f =
  Array.iteri
    (fun port (nbr, _) ->
      if nd.S.nbr_root.(port) = nd.S.part_root then f port nbr)
    (Graph.incident st.S.graph nd.S.id)

let build st =
  let g = st.S.graph in
  let n = Graph.n g in
  P.refresh_roots st;
  let depth_bound =
    List.fold_left
      (fun acc (root, members) ->
        let sub, back = Graph.induced g members in
        let local_root = ref (-1) in
        Array.iteri (fun i v -> if v = root then local_root := i) back;
        max acc (Traversal.eccentricity sub !local_root))
      1 (S.parts st)
  in
  let budget = depth_bound + 2 in
  Array.iter
    (fun nd ->
      nd.S.parent <- -1;
      nd.S.children <- [])
    st.S.nodes;
  let dist = Array.make n (-1) in
  let send_intra ctx nd msg =
    iter_intra st nd (fun _ nbr -> S.Cmp.send ctx ~dest:nbr msg)
  in
  P.relay st ~budget
    ~start:(fun ctx nd ->
      if S.is_root st nd.S.id then begin
        dist.(nd.S.id) <- 0;
        send_intra ctx nd (M.Bdry (81, [ 0 ]))
      end)
    ~receive:(fun ctx nd ->
      List.iter (fun (from, msg) ->
          match msg with
          | M.Bdry (81, [ d ]) ->
              if nd.S.parent = -1 && not (S.is_root st nd.S.id) then begin
                nd.S.parent <- from;
                dist.(nd.S.id) <- d + 1;
                S.Cmp.send ctx ~dest:from (M.Bdry (82, []));
                send_intra ctx nd (M.Bdry (81, [ d + 1 ]))
              end
          | M.Bdry (82, []) -> nd.S.children <- from :: nd.S.children
          | _ -> assert false));
  let nbr_level = Array.make n [] in
  P.exchange st
    ~send:(fun ctx nd ->
      send_intra ctx nd (M.Bdry (83, [ dist.(nd.S.id) ])))
    ~receive:(fun nd ->
      List.iter (fun (from, msg) ->
          match msg with
          | M.Bdry (83, [ d ]) ->
              nbr_level.(nd.S.id) <- (from, d) :: nbr_level.(nd.S.id)
          | _ -> assert false));
  { dist; nbr_level; depth_bound }

let is_tree_edge st v w =
  let nd = S.node st v in
  nd.S.parent = w || List.mem w nd.S.children

let assigned_to t st v w =
  ignore st;
  let dw = List.assoc w t.nbr_level.(v) in
  t.dist.(v) > dw || (t.dist.(v) = dw && v > w)
