type mode = Fiber | Compiled

let mode_to_string = function Fiber -> "fiber" | Compiled -> "compiled"

let mode_of_string = function
  | "fiber" -> Some Fiber
  | "compiled" -> Some Compiled
  | _ -> None

module type MESSAGE = sig
  type t

  val bits : t -> int
end

module Make (Msg : MESSAGE) = struct
  module Eng = Engine.Make (Msg)

  type step = Engine.step = Halt | Park of int
  type ctx = Eng.ctx
  type pool = Eng.pool

  let pool = Eng.pool
  let round = Eng.round
  let reject = Eng.reject
  let send = Eng.send
  let send_port = Eng.send_port
  let broadcast = Eng.broadcast

  type result = {
    rejections : (int * int * string) list;
    stats : Stats.t;
    completed : bool;
  }

  let run ~mode ?bandwidth ?(max_rounds = 1_000_000) ?telemetry ?trace
      ?(domains = 1) ?(fast_forward = true) ?faults ?on_round ?pool g ~start
      ~resume =
    let res =
      match mode with
      | Compiled ->
          Eng.run_steps ?bandwidth ~max_rounds ?telemetry ?trace ~domains
            ~fast_forward ?faults ?on_round ?pool g ~start ~resume
      | Fiber ->
          (* Each node's fiber replays the step program, one [wait] per
             [Park] — the suspensions a hand-written fiber program with
             the same schedule performs. *)
          Eng.run ?bandwidth ~max_rounds ?telemetry ?trace ~domains
            ~fast_forward ?faults ?on_round ?pool g (fun e ->
              let v = Eng.my_id e in
              let rec go = function
                | Halt -> ()
                | Park k -> go (resume e v (Eng.wait e (max 1 k)))
              in
              go (start e v))
    in
    {
      rejections = res.Eng.rejections;
      stats = res.Eng.stats;
      completed = res.Eng.completed;
    }
end
