(** Wire messages shared by the partition and tester sub-protocols.
    Payloads are flat int lists; the [tag] identifies the sub-step so that
    lockstep violations surface as failures instead of silent
    cross-talk. *)

type t =
  | Root of int  (** neighbor-part-root refresh *)
  | Down of int * int list  (** (tag, payload): broadcast along part trees *)
  | Up of int * int list  (** (tag, payload): convergecast along part trees *)
  | Bdry of int * int list  (** (tag, payload): across cut or intra edges *)

(** Wire size: a small header plus the cost of each integer at its own
    magnitude.  Recent long [Down] payloads' costs are memoized by
    physical identity; the result always equals the plain sum. *)
val bits : t -> int

(** Bits of one payload integer. *)
val int_cost : int -> int

val list_cost : int list -> int
