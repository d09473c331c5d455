(** Step programs and their two executors.

    A step program is a node protocol of one restricted shape: a node
    does some work at start-up, parks for a known number of rounds, and
    is re-entered once per delivery or deadline with its inbox.  Every
    partition and tester protocol ([Partition.Prims] and its callers)
    and the {!Protocols} helpers are written once, in this shape, as a
    [start] / [resume] pair, and {!Make.run} executes them on either
    executor:

    - {b flat} ([mode = Compiled], no active faults) — flat array passes
      over the CSR substrate, one pass per simulated round: no fibers,
      no continuations, no per-node stacks, no allocation beyond the
      messages themselves.  Serial by construction.
    - {b fiber} ([mode = Fiber], or any active fault policy) — a small
      adapter over {!Engine.Make.run}: each node's fiber runs [start],
      then [wait]s once per [Park] and feeds the inbox to [resume].
      Sharding across [?domains], fault injection, fast-forward and
      tracing are the engine's own.

    {b Byte-identity contract.}  For the same graph and the same
    fault-free step program, both executors produce {!Stats.t},
    {!Telemetry} totals and simulated [.ctrace] events byte-identical to
    each other at the same [fast_forward] setting (and, fiber side, at
    every [?domains] count; only host-side utilization fields differ): the flat pass replicates the fiber engine's
    delivery order (ascending sender, reverse send order within a
    sender), inbox construction, bandwidth charging, round and
    fast-forward accounting, per-round telemetry ticks and predicted
    resume/park trace events exactly.  The differential suites in
    [test/test_prop.ml] and [test/test_congest.ml] and the
    [make compiled] CI leg enforce this.  Free-form node programs (nested
    waits, local recursion) do not fit the shape and run on {!Engine}
    directly; in the library only [Tester.Elkin_neiman] still does. *)

(** Execution-mode knob threaded through [Stage1], [Planarity_tester],
    [Protocols] and the CLIs ([planartest --mode], [bench --mode]). *)
type mode =
  | Fiber  (** the effect-handler engine (the default everywhere) *)
  | Compiled
      (** the flat executor, except under an active fault policy, which
          forces the fiber executor *)

val mode_to_string : mode -> string

(** Accepted spellings: ["fiber"], ["compiled"]. *)
val mode_of_string : string -> mode option

module type MESSAGE = sig
  type t

  val bits : t -> int
end

module Make (Msg : MESSAGE) : sig
  (** The fiber engine over the same message type — the fiber
      executor. *)
  module Eng : module type of Engine.Make (Msg)

  (** What a node does next, returned by the [start] / [resume] hooks:
      [Park k] re-enters the node at the first round with a non-empty
      inbox, or unconditionally after [k] rounds ([k] is clamped to
      [>= 1], like the engine's [wait]); [Halt] ends the node. *)
  type step = Halt | Park of int

  (** Execution context handed to the hooks, tagged with the executor
      running them; the flat executor retargets one context from node to
      node, so hooks must only use it synchronously. *)
  type ctx

  (** Preallocated per-graph delivery state for both executors, reusable
      across runs: the fiber engine's pool (allocated up front) and the
      flat executor's (allocated on the first flat run).  One run at a
      time; a busy pool or one built for another graph value falls back
      to fresh allocation. *)
  type pool

  val pool : Graphlib.Graph.t -> pool

  (** The fiber half, e.g. to read its {!Eng.footprint}. *)
  val fiber_pool : pool -> Eng.pool

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
      on the executor [mode] selects (see the module preamble): [resume]
      is invoked per node with the round's inbox — possibly [[]] when
      the park deadline expired with no traffic.  Deliveries, bandwidth
      charging, telemetry ticks, tracing, fast-forward over quiescent
      spans and the [max_rounds] cut-off follow [Engine.run]'s semantics
      byte-for-byte on both executors.  An exception from a hook aborts
      the run after the round's accounting and propagates.  [?domains]
      and [?faults] matter to the fiber executor only (the flat executor
      is serial, and faults force the fiber one);
      [?on_round] is [Engine.run]'s host-side observer: [f 1] per
      stepped round, [f delta] per fast-forwarded span.  Defaults match
      [Engine.run]. *)
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
