(** Classic CONGEST building blocks on the simulator, provided both as
    reusable substrate and as validation targets for the engine (their
    round complexities are textbook facts the tests pin down).

    Each is written once, as a {!Compiled} step program.  [?mode]
    (default [Fiber]) picks the executor and [?domains] (default 1) the
    fiber executor's shard count; results and round counts are
    identical for every choice. *)

(** Result of {!bfs_tree}: parent pointers and levels of a BFS tree rooted
    at the source ([-1] parent at the root and at unreached nodes). *)
type bfs_result = {
  parent : int array;
  level : int array;  (** [-1] when unreached *)
  rounds : int;
}

(** [bfs_tree g ~root ~rounds_bound] floods from [root] for
    [rounds_bound] rounds (use an eccentricity upper bound, e.g. [n]). *)
val bfs_tree :
  ?mode:Compiled.mode ->
  ?domains:int ->
  Graphlib.Graph.t ->
  root:int ->
  rounds_bound:int ->
  bfs_result

(** Leader election by min-id flooding: every node learns the smallest id
    in its component in (at most) [rounds_bound] rounds; returns the
    per-node leader. *)
val elect_min_id :
  ?mode:Compiled.mode ->
  ?domains:int ->
  Graphlib.Graph.t ->
  rounds_bound:int ->
  int array

(** Flood-echo from [root]: counts the nodes of [root]'s component using a
    spanning-tree convergecast; returns (count, rounds). *)
val count_nodes :
  ?mode:Compiled.mode ->
  ?domains:int ->
  Graphlib.Graph.t ->
  root:int ->
  rounds_bound:int ->
  int * int
