(** Tree and boundary communication of the partition and tester passes.

    Every protocol here executes one complete CONGEST run over the whole
    network in which all nodes follow the same fixed round schedule, and
    there are only two schedules: a one-round {!exchange}, and a
    {!relay} that runs for a fixed round budget.  Each run is a
    {!Congest.Compiled} step program, stepped the way [st.mode] selects
    (on fibers, or by direct calls) with byte-identical accounting
    either way.  The fixed schedule keeps chained runs in lockstep —
    exactly the fixed-budget scheduling the paper uses (it budgets each
    emulated super-round by the [4^i] diameter bound; we budget by the
    true maximum part depth and account the nominal schedule
    separately).

    The four named primitives ({!refresh_roots}, {!bcast}, {!converge},
    {!boundary}) are built on those two schedules; the Stage I merging
    hand-offs and the Stage II passes call {!exchange} and {!relay}
    directly.

    Round statistics accumulate into [st.stats].  A run that cannot
    complete under an active fault policy (a crash-stopped node, or
    [max_rounds]) raises {!Congest.Faults.Degraded} after still
    accumulating its stats.  When [st.trace] is set, each named
    primitive wraps its engine run in a {!Congest.Trace.span} named
    after itself ("refresh_roots", "bcast", "converge", "boundary");
    bare {!exchange} and {!relay} runs open no span.  Every run's events
    land on the trace's continuous timeline. *)

(** [exchange st ~send ~receive] runs one round over the whole network:
    [send ctx nd] queues node [nd]'s messages at start-up (through
    {!State.Cmp.send} and friends), then every node passes its round-1
    inbox (possibly empty) to [receive nd inbox] and halts. *)
val exchange :
  State.t ->
  send:(State.Cmp.ctx -> State.node -> unit) ->
  receive:(State.node -> (int * Msg.t) list -> unit) ->
  unit

(** [relay st ~budget ~start ~receive] runs every node for exactly
    [budget] rounds: [start ctx nd] at start-up, then [receive ctx nd
    inbox] on every non-empty inbox, which may send again.  Nodes park
    in between, so quiet spans fast-forward.  [at_deadline nd] runs as
    each node halts at round [budget]; raise there to fail a node whose
    protocol did not finish in time. *)
val relay :
  ?at_deadline:(State.node -> unit) ->
  State.t ->
  budget:int ->
  start:(State.Cmp.ctx -> State.node -> unit) ->
  receive:(State.Cmp.ctx -> State.node -> (int * Msg.t) list -> unit) ->
  unit

(** One round: every node tells every neighbor its current part root;
    updates [nbr_root]. *)
val refresh_roots : State.t -> unit

(** [bcast st ~budget ~tag ~at_root ~on_receive] sends a payload from each
    part root down its tree.  [at_root nd] produces the part's payload
    ([None] = this part stays silent); [on_receive] fires at every node of
    a broadcasting part, the root included.  [budget] must be at least the
    maximum part-tree depth. *)
val bcast :
  State.t ->
  budget:int ->
  tag:int ->
  at_root:(State.node -> int list option) ->
  on_receive:(State.node -> int list -> unit) ->
  unit

(** [converge st ~budget ~tag ~init ~combine ~encode ~decode ~at_root]
    aggregates a value from the leaves of every part tree to its root:
    each node starts from [init nd], combines in its children's values, and
    forwards; the root's total is delivered to [at_root].  [budget] must be
    at least the maximum part-tree depth. *)
val converge :
  State.t ->
  budget:int ->
  tag:int ->
  init:(State.node -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  encode:('a -> int list) ->
  decode:(int list -> 'a) ->
  at_root:(State.node -> 'a -> unit) ->
  unit

(** One round of cross-part messaging: [payload nd ~port ~nbr] is consulted
    for every incident edge leading outside the part; deliveries invoke
    [on_receive nd ~nbr payload]. *)
val boundary :
  State.t ->
  tag:int ->
  payload:(State.node -> port:int -> nbr:int -> int list option) ->
  on_receive:(State.node -> nbr:int -> int list -> unit) ->
  unit
