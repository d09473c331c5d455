open Graphlib

module Cmp = State.Cmp

(* [traced st label f] wraps one primitive's engine run in a trace span
   when the state carries a trace; spans nest under the current trace
   phase and cost nothing when tracing is off. *)
let traced (st : State.t) label f =
  match st.State.trace with
  | Some tr -> Congest.Trace.span tr label f
  | None -> f ()

(* Charge a finished run into [st], then judge its completion.  Charge
   first: a degraded run's rounds and fault counters must still land in
   [st.stats] so higher layers can report honestly what happened on the
   wire.  Keep every (round, node, reason) rejection: identical
   rejections from different rounds must not collapse (display paths
   dedup later). *)
let absorb (st : State.t) ~stats ~completed ~rejections =
  Congest.Stats.add_into st.State.stats stats;
  if not completed then
    if Congest.Faults.active st.State.faults then
      raise
        (Congest.Faults.Degraded
           "Prims: node program did not complete under fault injection")
    else failwith "Prims: node program did not complete";
  st.State.rejections <-
    List.map (fun (_, v, reason) -> (v, reason)) rejections
    @ st.State.rejections

(* Every protocol here is a step program; [st.mode] picks how its nodes
   are stepped. *)
let run_steps (st : State.t) ~start ~resume =
  let res =
    Cmp.run ~mode:st.State.mode ?telemetry:st.State.telemetry
      ?trace:st.State.trace ~domains:st.State.domains
      ~fast_forward:st.State.fast_forward ?faults:st.State.faults
      ?on_round:st.State.on_round ~pool:st.State.pool st.State.graph ~start
      ~resume
  in
  absorb st ~stats:res.Cmp.stats ~completed:res.Cmp.completed
    ~rejections:res.Cmp.rejections

let exchange st ~send ~receive =
  run_steps st
    ~start:(fun ctx v ->
      send ctx (State.node st v);
      Cmp.Park 1)
    ~resume:(fun _ctx v inbox ->
      receive (State.node st v) inbox;
      Cmp.Halt)

(* A relay parks each node until the next arrival or the budget's
   deadline rather than stepping it every round: the only rounds that
   change anything are the ones a message arrives in, so whole-network
   quiet spans fast-forward without altering the round schedule — every
   node still finishes exactly at round [budget]. *)
let relay ?at_deadline st ~budget ~start ~receive =
  let next ctx nd =
    if Cmp.round ctx < budget then Cmp.Park (budget - Cmp.round ctx)
    else begin
      Option.iter (fun f -> f nd) at_deadline;
      Cmp.Halt
    end
  in
  run_steps st
    ~start:(fun ctx v ->
      let nd = State.node st v in
      start ctx nd;
      next ctx nd)
    ~resume:(fun ctx v inbox ->
      let nd = State.node st v in
      if inbox <> [] then receive ctx nd inbox;
      next ctx nd)

let refresh_roots (st : State.t) =
  let g = st.State.graph in
  traced st "refresh_roots" @@ fun () ->
  exchange st
    ~send:(fun ctx nd ->
      Graph.iter_incident g nd.State.id (fun nbr e ->
          Cmp.send_port ctx ~dest:nbr ~eid:e (Msg.Root nd.State.part_root)))
    ~receive:(fun nd inbox ->
      let v = nd.State.id in
      (* Inbox senders arrive in ascending order, matching port order, so
         one pointer walks both in a single merged pass. *)
      let port = ref 0 in
      List.iter
        (fun (from, msg) ->
          match msg with
          | Msg.Root r ->
              while Graph.nbr g v !port <> from do
                incr port
              done;
              nd.State.nbr_root.(!port) <- r
          | _ -> assert false)
        inbox)

let bcast st ~budget ~tag ~at_root ~on_receive =
  let forward ctx nd payload =
    on_receive nd payload;
    List.iter
      (fun c -> Cmp.send ctx ~dest:c (Msg.Down (tag, payload)))
      nd.State.children
  in
  traced st "bcast" @@ fun () ->
  relay st ~budget
    ~start:(fun ctx nd ->
      if State.is_root st nd.State.id then
        match at_root nd with
        | Some payload -> forward ctx nd payload
        | None -> ())
    ~receive:(fun ctx nd inbox ->
      List.iter
        (fun (from, msg) ->
          match msg with
          | Msg.Down (t, payload) ->
              if t <> tag then
                failwith
                  (Printf.sprintf "bcast: lockstep violation (tag %d vs %d)" t
                     tag);
              assert (from = nd.State.parent);
              forward ctx nd payload
          | _ -> assert false)
        inbox)

let converge (st : State.t) ~budget ~tag ~init ~combine ~encode ~decode
    ~at_root =
  let n = Graph.n st.State.graph in
  let pending = Array.make n 0 in
  let accs = Array.make n None in
  let sent = Bytes.make n '\000' in
  (* [maybe_send] can only newly fire on a round an [Up] arrives (the
     call at start-up covers leaves). *)
  let maybe_send ctx nd =
    let v = nd.State.id in
    if pending.(v) = 0 && Bytes.get sent v = '\000' then begin
      Bytes.set sent v '\001';
      let acc = Option.get accs.(v) in
      if nd.State.parent >= 0 then
        Cmp.send ctx ~dest:nd.State.parent (Msg.Up (tag, encode acc))
      else at_root nd acc
    end
  in
  traced st "converge" @@ fun () ->
  relay st ~budget
    ~at_deadline:(fun nd ->
      if Bytes.get sent nd.State.id = '\000' then
        failwith "converge: budget too small for tree depth")
    ~start:(fun ctx nd ->
      pending.(nd.State.id) <- List.length nd.State.children;
      accs.(nd.State.id) <- Some (init nd);
      maybe_send ctx nd)
    ~receive:(fun ctx nd inbox ->
      let v = nd.State.id in
      List.iter
        (fun (from, msg) ->
          match msg with
          | Msg.Up (t, payload) ->
              if t <> tag then
                failwith
                  (Printf.sprintf "converge: lockstep violation (tag %d vs %d)"
                     t tag);
              if not (List.mem from nd.State.children) then
                failwith "converge: message from non-child";
              accs.(v) <- Some (combine (Option.get accs.(v)) (decode payload));
              pending.(v) <- pending.(v) - 1
          | _ -> assert false)
        inbox;
      maybe_send ctx nd)

let boundary (st : State.t) ~tag ~payload ~on_receive =
  let g = st.State.graph in
  traced st "boundary" @@ fun () ->
  exchange st
    ~send:(fun ctx nd ->
      let v = nd.State.id in
      for port = 0 to Graph.degree g v - 1 do
        if nd.State.nbr_root.(port) <> nd.State.part_root then begin
          let nbr = Graph.nbr g v port in
          match payload nd ~port ~nbr with
          | Some pl ->
              Cmp.send_port ctx ~dest:nbr
                ~eid:(Graph.incident_eid g v port)
                (Msg.Bdry (tag, pl))
          | None -> ()
        end
      done)
    ~receive:(fun nd inbox ->
      List.iter
        (fun (from, msg) ->
          match msg with
          | Msg.Bdry (t, pl) ->
              if t <> tag then
                failwith
                  (Printf.sprintf "boundary: lockstep violation (tag %d vs %d)"
                     t tag);
              on_receive nd ~nbr:from pl
          | _ -> assert false)
        inbox)
