(** The run-level [congest_*] metric families, registered once and
    recorded by both executors ({!Engine} and {!Compiled}) through
    {!record_run}.

    A compiled run and a serial fiber run of the same workload record
    identical values in every family except the two labelled by [mode]
    ([congest_mode_runs], [congest_mode_rounds]), which say which
    executor ran it ([fiber] or [compiled]); those two are stable too,
    so the planarmon baseline pins which engine executed what. *)

(** Wall-clock origin for {!record_run}: the current time when metrics
    are enabled, [0.0] otherwise (no clock read on the disabled path). *)
val start : unit -> float

(** [record_run ~mode ~domains ~t0 stats ~completed] adds one finished
    run: its {!Stats.t} totals, one [congest_incomplete_runs] tick when
    [completed] is false, the mode-labelled pair under [mode], and the
    host wall clock since [t0] under the requested [domains] count.  A
    no-op when metrics are disabled. *)
val record_run :
  mode:string -> domains:int -> t0:float -> Stats.t -> completed:bool -> unit
