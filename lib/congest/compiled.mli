(** Step programs and the [--mode] knob.

    A step program is a node protocol of one restricted shape: a node
    does some work at start-up, parks for a known number of rounds, and
    is re-entered once per delivery or deadline with its inbox.  Every
    protocol in the library ([Partition.Prims] and its callers, the
    {!Protocols} helpers and [Tester.Elkin_neiman]) is written once, in
    this shape, as a [start] / [resume] pair, and {!Make.run} executes it
    in one of two ways on {!Engine}'s single round loop:

    - {b compiled} ([mode = Compiled]) — {!Engine.Make.run_steps} calls
      the hooks directly: no effect handler, no continuations, no
      per-node stacks.
    - {b fiber} ([mode = Fiber]) — a small adapter over
      {!Engine.Make.run}: each node's fiber runs [start], then [wait]s
      once per [Park] and feeds the inbox to [resume].

    Delivery, bandwidth charging, sharding across [?domains], fault
    injection, fast-forward and tracing are the engine's own in both
    modes, so the mode only decides how a node is stepped.

    {b Byte-identity contract.}  For the same graph, step program,
    [fast_forward] setting and fault policy, both modes produce
    {!Stats.t}, {!Telemetry} and simulated [.ctrace] events
    byte-identical to each other at every [?domains] count (only the
    host-side utilization fields depend on the domain count).  The
    differential suites in [test/test_prop.ml] and [test/test_congest.ml]
    and the [make compiled] CI leg enforce this. *)

(** Execution-mode knob threaded through [Stage1], [Planarity_tester],
    [Protocols] and the CLIs ([planartest --mode], [bench --mode]). *)
type mode =
  | Fiber  (** each node is a fiber (the default everywhere) *)
  | Compiled  (** the hooks are called directly, never on a fiber *)

val mode_to_string : mode -> string

(** Accepted spellings: ["fiber"], ["compiled"]. *)
val mode_of_string : string -> mode option

module type MESSAGE = sig
  type t

  val bits : t -> int
end

module Make (Msg : MESSAGE) : sig
  (** The engine over the same message type. *)
  module Eng : module type of Engine.Make (Msg)

  (** What a node does next, returned by the [start] / [resume] hooks
      (see {!Engine.step}). *)
  type step = Engine.step = Halt | Park of int

  (** Execution context handed to the hooks.  In compiled mode one
      context per domain is retargeted from node to node, so hooks must
      only use it synchronously. *)
  type ctx

  (** The engine's preallocated per-graph delivery state
      ({!Engine.Make.pool}), shared by both modes and reusable across
      runs.  One run at a time; a busy pool or one built for another
      graph value falls back to fresh allocation. *)
  type pool = Eng.pool

  val pool : Graphlib.Graph.t -> pool

  (** Queue a message to a neighbor (binary-search edge lookup, exactly
      like [Engine.send]).  @raise Invalid_argument on a non-neighbor. *)
  val send : ctx -> dest:int -> Msg.t -> unit

  (** [send_port ctx ~dest ~eid msg] queues on a known incident edge id —
      no search; for callers iterating an incidence structure.  The
      directed-edge accounting is identical to {!send}. *)
  val send_port : ctx -> dest:int -> eid:int -> Msg.t -> unit

  (** Broadcast to all neighbors in port (neighbor-ascending) order,
      matching [Engine.broadcast]. *)
  val broadcast : ctx -> Msg.t -> unit

  (** Current round (0 during start-up, [r >= 1] inside round [r]'s
      resume pass) — same clock as [Engine.round]. *)
  val round : ctx -> int

  (** Record rejection evidence, like [Engine.reject]. *)
  val reject : ctx -> string -> unit

  type result = {
    rejections : (int * int * string) list;
        (** (round, node, reason), chronological *)
    stats : Stats.t;
    completed : bool;
        (** false when [max_rounds] was exhausted or, under faults, a
            node crash-stopped *)
  }

  (** [run ~mode g ~start ~resume] drives every node through its [start]
      hook (round 0), then simulates rounds until every node has halted,
      stepping nodes the way [mode] selects (see the module preamble):
      [resume] is invoked per node with the round's inbox — possibly
      [[]] when the park deadline expired with no traffic.  Every other
      argument is {!Engine.Make.run}'s, with the same meaning and
      defaults in both modes.  An exception from a hook aborts the run
      after the round's accounting and propagates. *)
  val run :
    mode:mode ->
    ?bandwidth:int ->
    ?max_rounds:int ->
    ?telemetry:Telemetry.t ->
    ?trace:Trace.t ->
    ?domains:int ->
    ?fast_forward:bool ->
    ?faults:Faults.policy ->
    ?on_round:(int -> unit) ->
    ?pool:pool ->
    Graphlib.Graph.t ->
    start:(ctx -> int -> step) ->
    resume:(ctx -> int -> (int * Msg.t) list -> step) ->
    result
end
