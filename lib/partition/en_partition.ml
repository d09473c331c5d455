open Graphlib

type result = {
  state : State.t;
  cut : int;
  clusters : int;
  radius_bound : int;
  capped : int;
}

(* Shifted values travel as fixed-point integers so the wire format stays
   integral: value = (r_v - dist) * scale. *)
let scale = 1 lsl 16

let run ?(seed = 0) ?state g ~eps =
  if not (eps > 0.0 && eps < 1.0) then invalid_arg "En_partition.run: eps";
  let n = Graph.n g in
  let st = match state with Some st -> st | None -> State.create g in
  if n = 0 then { state = st; cut = 0; clusters = 0; radius_bound = 0; capped = 0 }
  else begin
    let beta = eps /. 2.0 in
    (* All shifts are below R = (2/eps) ln n + O(1/eps) w.p. 1 - 1/n. *)
    let radius_bound =
      2 + int_of_float (ceil (log (float_of_int (max n 2)) /. beta))
    in
    let capped = ref 0 in
    (* Each node draws its shift r_v ~ Exp(beta) locally. *)
    let shift v =
      let rng = Random.State.make [| seed; v; 0xe14 |] in
      let r_v = -.log (1.0 -. Random.State.float rng 1.0) /. beta in
      if r_v >= float_of_int radius_bound then begin
        incr capped;
        float_of_int radius_bound -. 1.0
      end
      else r_v
    in
    (* best wave per node: (value, source, delivering neighbor), and the
       last (value, source) it broadcast *)
    let best_val = Array.init n shift in
    let best_src = Array.init n Fun.id in
    let best_from = Array.make n (-1) in
    let last_val = Array.make n neg_infinity in
    let last_src = Array.make n max_int in
    (* Lexicographic maximum on (value, -source): ties in the scaled
       arithmetic resolve toward the smaller source everywhere, which
       makes the quiescent parent pointers cluster-consistent. *)
    let beats (x : float) (src : int) y src' =
      x > y || (x = y && src < src')
    in
    let maybe_broadcast ctx v =
      if beats best_val.(v) best_src.(v) last_val.(v) last_src.(v) then begin
        last_val.(v) <- best_val.(v);
        last_src.(v) <- best_src.(v);
        State.Cmp.broadcast ctx
          (Msg.Bdry
             ( 95,
               [
                 best_src.(v);
                 int_of_float ((best_val.(v) -. 1.0) *. float_of_int scale);
               ] ))
      end
    in
    Prims.relay st ~budget:(2 * radius_bound)
      ~start:(fun ctx nd -> maybe_broadcast ctx nd.State.id)
      ~receive:(fun ctx nd inbox ->
        let v = nd.State.id in
        List.iter
          (fun (from, msg) ->
            match msg with
            | Msg.Bdry (95, [ src; scaled ]) ->
                let x = float_of_int scaled /. float_of_int scale in
                if beats x src best_val.(v) best_src.(v) then begin
                  best_val.(v) <- x;
                  best_src.(v) <- src;
                  best_from.(v) <- from
                end
            | _ -> assert false)
          inbox;
        maybe_broadcast ctx v);
    (* Install the partition: part root = cluster source, tree = the
       first-contact (best-delivery) edges; children via one more round. *)
    Array.iter
      (fun nd ->
        let v = nd.State.id in
        nd.State.part_root <- best_src.(v);
        nd.State.parent <- best_from.(v);
        nd.State.children <- [])
      st.State.nodes;
    Prims.exchange st
      ~send:(fun ctx nd ->
        if nd.State.parent >= 0 then
          State.Cmp.send ctx ~dest:nd.State.parent (Msg.Bdry (96, [])))
      ~receive:(fun nd ->
        List.iter (fun (from, msg) ->
            match msg with
            | Msg.Bdry (96, []) ->
                nd.State.children <- from :: nd.State.children
            | _ -> assert false));
    Prims.refresh_roots st;
    State.check_invariants st;
    {
      state = st;
      cut = State.cut_edges st;
      clusters = List.length (State.parts st);
      radius_bound;
      capped = !capped;
    }
  end
