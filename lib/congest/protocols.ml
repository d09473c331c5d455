open Graphlib

module M = struct
  type t = Level of int | Leader of int | Count of int | Child of bool

  let bits = function
    | Level v | Leader v | Count v -> 4 + Bits.int_bits ~universe:(abs v + 2)
    | Child _ -> 5
end

module C = Compiled.Make (M)

type bfs_result = { parent : int array; level : int array; rounds : int }

(* Each protocol is one step program ([Compiled.Make.run] runs it on
   either executor).  All three re-enter every node once per round for
   [rounds_bound] rounds: a node parks for one round at a time, so its
   [k]-th resume happens in round [k]. *)
let next_round ~rounds_bound ctx =
  if C.round ctx >= rounds_bound then C.Halt else C.Park 1

let bfs_tree ?(mode = Compiled.Fiber) ?domains g ~root ~rounds_bound =
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let level = Array.make n (-1) in
  let res =
    C.run ~mode ?domains g
      ~start:(fun ctx v ->
        if v = root then begin
          level.(v) <- 0;
          C.broadcast ctx (M.Level 0)
        end;
        next_round ~rounds_bound ctx)
      ~resume:(fun ctx v inbox ->
        List.iter
          (fun (from, msg) ->
            match msg with
            | M.Level d ->
                if level.(v) < 0 then begin
                  level.(v) <- d + 1;
                  parent.(v) <- from;
                  C.broadcast ctx (M.Level (d + 1))
                end
            | _ -> assert false)
          inbox;
        next_round ~rounds_bound ctx)
  in
  { parent; level; rounds = res.C.stats.Stats.rounds }

let elect_min_id ?(mode = Compiled.Fiber) ?domains g ~rounds_bound =
  let leader = Array.init (Graph.n g) (fun v -> v) in
  ignore
    (C.run ~mode ?domains g
       ~start:(fun ctx v ->
         C.broadcast ctx (M.Leader v);
         next_round ~rounds_bound ctx)
       ~resume:(fun ctx v inbox ->
         let improved = ref false in
         List.iter
           (fun (_, msg) ->
             match msg with
             | M.Leader c ->
                 if c < leader.(v) then begin
                   leader.(v) <- c;
                   improved := true
                 end
             | _ -> assert false)
           inbox;
         if !improved then C.broadcast ctx (M.Leader leader.(v));
         next_round ~rounds_bound ctx));
  leader

(* Flood-echo on a general graph: the wave builds a BFS tree; on adoption a
   node tells its parent [Child true] and every other neighbor
   [Child false], so each node knows when all neighbor relations are
   resolved and all child counts are in.  Every neighbor sends exactly
   one [Child] message (when it adopts), so [unknown] resolves purely by
   receiving them. *)
let count_nodes ?(mode = Compiled.Fiber) ?domains g ~root ~rounds_bound =
  let n = Graph.n g in
  let parent = Array.make n (-2) in
  let unknown = Array.init n (fun v -> Graph.degree g v) in
  let children_pending = Array.make n 0 in
  let sum = Array.make n 1 in
  let sent = Bytes.make n '\000' in
  let total = ref 0 in
  (* [Level] broadcast first, then one [Child] per neighbor in port
     order. *)
  let adopt ctx v from d =
    parent.(v) <- from;
    C.broadcast ctx (M.Level (d + 1));
    Graph.iter_incident g v (fun w e ->
        C.send_port ctx ~dest:w ~eid:e (M.Child (w = from)))
  in
  let res =
    C.run ~mode ?domains g
      ~start:(fun ctx v ->
        if v = root then adopt ctx v (-1) (-1);
        next_round ~rounds_bound ctx)
      ~resume:(fun ctx v inbox ->
        List.iter
          (fun (from, msg) ->
            match msg with
            | M.Level d -> if parent.(v) = -2 then adopt ctx v from d
            | M.Child true ->
                unknown.(v) <- unknown.(v) - 1;
                children_pending.(v) <- children_pending.(v) + 1
            | M.Child false -> unknown.(v) <- unknown.(v) - 1
            | M.Count c ->
                sum.(v) <- sum.(v) + c;
                children_pending.(v) <- children_pending.(v) - 1
            | _ -> assert false)
          inbox;
        if
          unknown.(v) = 0
          && children_pending.(v) = 0
          && Bytes.get sent v = '\000'
          && parent.(v) >= -1
        then begin
          Bytes.set sent v '\001';
          if parent.(v) >= 0 then C.send ctx ~dest:parent.(v) (M.Count sum.(v))
          else total := sum.(v)
        end;
        next_round ~rounds_bound ctx)
  in
  (!total, res.C.stats.Stats.rounds)
