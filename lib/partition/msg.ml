(* Wire messages of the partition sub-protocols.  Payloads are flat int
   lists; the [tag] identifies the sub-step so that lockstep violations
   surface as assertion failures instead of silent cross-talk. *)

type t =
  | Root of int  (* neighbor-part-root refresh *)
  | Down of int * int list  (* tag, payload: broadcast along part trees *)
  | Up of int * int list  (* tag, payload: convergecast along part trees *)
  | Bdry of int * int list  (* tag, payload: across cut edges *)

let int_cost v = 2 + Congest.Bits.int_bits ~universe:(abs v + 2)

let list_cost l = List.fold_left (fun acc v -> acc + int_cost v) 0 l

(* A broadcast forwards one [Down] payload list on every tree edge and the
   engine sizes each copy, so the costs of recent long [Down] payloads are
   memoized, keyed on the list's physical identity (lists are immutable,
   so a hit is exact).  There are several slots because every part
   broadcasts at once and their senders interleave in delivery order.  A
   slot is one immutable pair swapped whole: engines stepping on other
   domains read the old pair or the new one, never a mix.  Short payloads
   skip the memo (walking them is cheaper than looking), and so do [Up]
   and [Bdry] ones, which each cross one edge. *)
let memo = Array.init 16 (fun _ -> Atomic.make ([], 0))
let memo_next = Atomic.make 0
let memo_min_len = 16

let down_cost l =
  let rec find i =
    if i = Array.length memo then begin
      let c = list_cost l in
      let slot = Atomic.fetch_and_add memo_next 1 mod Array.length memo in
      Atomic.set memo.(slot) (l, c);
      c
    end
    else
      let l', c = Atomic.get memo.(i) in
      if l == l' then c else find (i + 1)
  in
  if List.compare_length_with l memo_min_len < 0 then list_cost l else find 0

let bits = function
  | Root r -> 4 + int_cost r
  | Down (t, l) -> 4 + int_cost t + down_cost l
  | Up (t, l) | Bdry (t, l) -> 4 + int_cost t + list_cost l
