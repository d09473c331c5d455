open Graphlib

module M = struct
  type t = Wave of int * float  (* cluster source, shifted value *)

  (* One id plus a fixed-point payload. *)
  let bits (Wave _) = 64
end

module C = Congest.Compiled.Make (M)

type result = {
  spanner : Graph.t;
  edges : int;
  rounds : int;
  failed : bool;
}

(* Miller–Peng–Xu-style exponential-shift clustering, as used by
   Elkin–Neiman: every vertex starts a wave with value [r_v] (exponential
   with rate [ln (n/delta) / k]); waves decay by 1 per hop and only the
   best wave at each vertex keeps propagating.  Each vertex keeps the tree
   edge to the neighbor that delivered its best wave, plus one edge toward
   every other cluster heard within 1 of its own value. *)
let build ?(seed = 0) g ~k ~delta =
  let n = Graph.n g in
  if n = 0 then
    { spanner = Graph.make ~n:0 []; edges = 0; rounds = 0; failed = false }
  else begin
    let beta = log (float_of_int n /. delta) /. float_of_int k in
    (* The per-node stream the engine's [rng] derives from the seed. *)
    let r =
      Array.init n (fun v ->
          let rng = Random.State.make [| seed; v; 0x5eed |] in
          -.log (1.0 -. Random.State.float rng 1.0) /. beta)
    in
    (* Best wave so far per node: (source, value); own wave to start. *)
    let src = Array.init n Fun.id in
    let best = Array.copy r in
    let tree_nbr = Array.make n (-1) in
    (* Per node, best delivery per neighboring cluster:
       cluster -> (value, neighbor). *)
    let foreign = Array.init n (fun _ -> Hashtbl.create 8) in
    let last_sent = Array.make n neg_infinity in
    let maybe_broadcast ctx v =
      if best.(v) > last_sent.(v) then begin
        last_sent.(v) <- best.(v);
        C.broadcast ctx (M.Wave (src.(v), best.(v) -. 1.0))
      end
    in
    let next ctx = if C.round ctx < k then C.Park 1 else C.Halt in
    let res =
      C.run ~mode:Congest.Compiled.Compiled g
        ~start:(fun ctx v ->
          maybe_broadcast ctx v;
          next ctx)
        ~resume:(fun ctx v inbox ->
          List.iter
            (fun (from, M.Wave (s, x)) ->
              if x > best.(v) then begin
                src.(v) <- s;
                best.(v) <- x;
                tree_nbr.(v) <- from
              end;
              let cur =
                Option.value ~default:neg_infinity
                  (Option.map fst (Hashtbl.find_opt foreign.(v) s))
              in
              if x > cur then Hashtbl.replace foreign.(v) s (x, from))
            inbox;
          maybe_broadcast ctx v;
          next ctx)
    in
    (* Every node halts at round [k], in ascending id order. *)
    let keep = Hashtbl.create (4 * n) in
    let keep_edge u v = Hashtbl.replace keep (min u v, max u v) () in
    for v = 0 to n - 1 do
      (* Tree edge into the cluster. *)
      if tree_nbr.(v) >= 0 then keep_edge v tree_nbr.(v);
      (* One edge per foreign cluster heard within 1 of our value. *)
      Hashtbl.iter
        (fun s (x, from) ->
          if s <> src.(v) && x >= best.(v) -. 1.0 then keep_edge v from)
        foreign.(v)
    done;
    let edges = Hashtbl.fold (fun e () acc -> e :: acc) keep [] in
    let spanner = Graph.make ~n edges in
    {
      spanner;
      edges = Graph.m spanner;
      rounds = res.C.stats.Congest.Stats.rounds;
      failed = Array.exists (fun r_v -> r_v >= float_of_int k) r;
    }
  end
