open Graphlib

module Eng = State.Eng
module Cmp = State.Cmp

let sync = Eng.sync
let wait = Eng.wait
let round = Eng.round
let send = Eng.send
let reject = Eng.reject
let rng = Eng.rng

(* Arrival-driven budget loop: call [on_inbox] for each non-empty inbox
   until [budget] rounds have passed, parking the node in between (so the
   engine can fast-forward network-wide quiet spans).  Observationally
   identical to [budget] iterations of [sync] when the processing of an
   empty inbox is a no-op — which is the only sound way to use it. *)
let wait_rounds ctx ~budget on_inbox =
  let deadline = Eng.round ctx + budget in
  let rec pump () =
    let left = deadline - Eng.round ctx in
    if left > 0 then begin
      (match Eng.wait ctx left with [] -> () | inbox -> on_inbox inbox);
      pump ()
    end
  in
  pump ()

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

let run_program ?(seed = 0) (st : State.t) program =
  let res =
    Eng.run ~seed ?telemetry:st.State.telemetry ?trace:st.State.trace
      ~domains:st.State.domains ~fast_forward:st.State.fast_forward
      ?faults:st.State.faults ?on_round:st.State.on_round
      ~pool:(Cmp.fiber_pool st.State.pool) st.State.graph
      (fun ctx -> program ctx (State.node st (Eng.my_id ctx)))
  in
  absorb st ~stats:res.Eng.stats ~completed:res.Eng.completed
    ~rejections:res.Eng.rejections

(* The four lockstep primitives below are step programs: [st.mode] picks
   the executor, and active faults force the fiber one. *)
let run_steps (st : State.t) label ~start ~resume =
  traced st label @@ fun () ->
  let res =
    Cmp.run ~mode:st.State.mode ?telemetry:st.State.telemetry
      ?trace:st.State.trace ~domains:st.State.domains
      ~fast_forward:st.State.fast_forward ?faults:st.State.faults
      ?on_round:st.State.on_round ~pool:st.State.pool st.State.graph ~start
      ~resume
  in
  absorb st ~stats:res.Cmp.stats ~completed:res.Cmp.completed
    ~rejections:res.Cmp.rejections

let refresh_roots (st : State.t) =
  let g = st.State.graph in
  run_steps st "refresh_roots"
    ~start:(fun ctx v ->
      let nd = State.node st v in
      Graph.iter_incident g v (fun nbr e ->
          Cmp.send_port ctx ~dest:nbr ~eid:e (Msg.Root nd.State.part_root));
      Cmp.Park 1)
    ~resume:(fun _ctx v inbox ->
      let nd = State.node st v in
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
        inbox;
      Cmp.Halt)

(* [bcast] and [converge] park each node until the next arrival or the
   budget's deadline rather than stepping it every round: the only
   rounds that change anything are the ones a message arrives in, so
   whole-network quiet spans fast-forward without altering the round
   schedule — every node still finishes exactly at round [budget]. *)
let until_budget ~budget ctx =
  let left = budget - Cmp.round ctx in
  if left > 0 then Cmp.Park left else Cmp.Halt

let bcast st ~budget ~tag ~at_root ~on_receive =
  let relay ctx nd payload =
    List.iter
      (fun c -> Cmp.send ctx ~dest:c (Msg.Down (tag, payload)))
      nd.State.children
  in
  run_steps st "bcast"
    ~start:(fun ctx v ->
      let nd = State.node st v in
      (if State.is_root st v then
         match at_root nd with
         | Some payload ->
             on_receive nd payload;
             relay ctx nd payload
         | None -> ());
      until_budget ~budget ctx)
    ~resume:(fun ctx v inbox ->
      let nd = State.node st v in
      List.iter
        (fun (from, msg) ->
          match msg with
          | Msg.Down (t, payload) ->
              if t <> tag then
                failwith
                  (Printf.sprintf "bcast: lockstep violation (tag %d vs %d)" t
                     tag);
              assert (from = nd.State.parent);
              on_receive nd payload;
              relay ctx nd payload
          | _ -> assert false)
        inbox;
      until_budget ~budget ctx)

let converge (st : State.t) ~budget ~tag ~init ~combine ~encode ~decode
    ~at_root =
  let n = Graph.n st.State.graph in
  let pending = Array.make n 0 in
  let accs = Array.make n None in
  let sent = Bytes.make n '\000' in
  (* [maybe_send] can only newly fire on a round an [Up] arrives (the
     call at start-up covers leaves). *)
  let maybe_send ctx v nd =
    if pending.(v) = 0 && Bytes.get sent v = '\000' then begin
      Bytes.set sent v '\001';
      let acc = Option.get accs.(v) in
      if nd.State.parent >= 0 then
        Cmp.send ctx ~dest:nd.State.parent (Msg.Up (tag, encode acc))
      else at_root nd acc
    end
  in
  let next ctx v =
    match until_budget ~budget ctx with
    | Cmp.Halt when Bytes.get sent v = '\000' ->
        failwith "converge: budget too small for tree depth"
    | step -> step
  in
  run_steps st "converge"
    ~start:(fun ctx v ->
      let nd = State.node st v in
      pending.(v) <- List.length nd.State.children;
      accs.(v) <- Some (init nd);
      maybe_send ctx v nd;
      next ctx v)
    ~resume:(fun ctx v inbox ->
      let nd = State.node st v in
      if inbox <> [] then begin
        List.iter
          (fun (from, msg) ->
            match msg with
            | Msg.Up (t, payload) ->
                if t <> tag then
                  failwith
                    (Printf.sprintf
                       "converge: lockstep violation (tag %d vs %d)" t tag);
                if not (List.mem from nd.State.children) then
                  failwith "converge: message from non-child";
                accs.(v) <- Some (combine (Option.get accs.(v)) (decode payload));
                pending.(v) <- pending.(v) - 1
            | _ -> assert false)
          inbox;
        maybe_send ctx v nd
      end;
      next ctx v)

let boundary (st : State.t) ~tag ~payload ~on_receive =
  let g = st.State.graph in
  run_steps st "boundary"
    ~start:(fun ctx v ->
      let nd = State.node st v in
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
      done;
      Cmp.Park 1)
    ~resume:(fun _ctx v inbox ->
      let nd = State.node st v in
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
        inbox;
      Cmp.Halt)
