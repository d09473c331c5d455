(* Run-level metrics, recorded once per run from the coordinator after
   the last round — never on the per-round hot path.  Everything marked
   stable is a pure function of (program, graph, seed, faults): the same
   numbers for any [?domains], for fast-forward on/off and for either
   executor, per the determinism contract. *)

let m_mode_runs =
  Obs.Metrics.counter ~label_names:[ "mode" ]
    ~help:"Engine runs by execution mode" "congest_mode_runs"

let m_mode_rounds =
  Obs.Metrics.counter ~label_names:[ "mode" ]
    ~help:"Simulated rounds by execution mode" "congest_mode_rounds"

let m_runs =
  Obs.Metrics.counter ~help:"Engine runs completed" "congest_runs"

let m_incomplete_runs =
  Obs.Metrics.counter
    ~help:"Engine runs that stopped early (max_rounds, crash culls or \
           recorded node failures)"
    "congest_incomplete_runs"

let m_rounds =
  Obs.Metrics.counter ~help:"Simulated rounds executed" "congest_rounds"

let m_charged_rounds =
  Obs.Metrics.counter
    ~help:"Rounds charged to the CONGEST budget (incl. fragmentation frames)"
    "congest_charged_rounds"

let m_messages =
  Obs.Metrics.counter ~help:"Messages delivered" "congest_messages"

let m_bits = Obs.Metrics.counter ~help:"Total bits delivered" "congest_bits"

let m_oversized =
  Obs.Metrics.counter
    ~help:"Edge-rounds exceeding the bandwidth (fragmented into frames)"
    "congest_oversized_edges"

let m_ff_rounds =
  (* Not stable: the whole point of this counter is to differ between
     fast-forward on and off (it counts the skipped spans), so it cannot
     be part of the ff-invariant projection. *)
  Obs.Metrics.counter ~stable:false
    ~help:"Quiescent rounds skipped by fast-forward (subset of congest_rounds)"
    "congest_fast_forwarded_rounds"

let m_faults =
  Obs.Metrics.counter ~label_names:[ "kind" ]
    ~help:"Fault-injection firings by kind" "congest_faults"

let m_crashed =
  Obs.Metrics.counter ~help:"Crash-stop events charged to nodes"
    "congest_crashed_nodes"

let m_run_wall =
  Obs.Metrics.counter ~stable:false ~label_names:[ "domains" ]
    ~help:"Host wall clock spent inside Engine.run, microseconds, by \
           requested domain count"
    "congest_run_wall_us"

let start () = if Obs.Metrics.enabled () then Unix.gettimeofday () else 0.0

let record_run ~mode ~domains ~t0 (s : Stats.t) ~completed =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.inc m_runs;
    if not completed then Obs.Metrics.inc m_incomplete_runs;
    Obs.Metrics.inc ~by:s.rounds m_rounds;
    Obs.Metrics.inc ~by:s.charged_rounds m_charged_rounds;
    Obs.Metrics.inc ~by:s.messages m_messages;
    Obs.Metrics.inc ~by:s.total_bits m_bits;
    Obs.Metrics.inc ~by:s.oversized m_oversized;
    Obs.Metrics.inc ~by:s.fast_forwarded_rounds m_ff_rounds;
    Obs.Metrics.inc ~labels:[ "dropped" ] ~by:s.dropped m_faults;
    Obs.Metrics.inc ~labels:[ "duplicated" ] ~by:s.duplicated m_faults;
    Obs.Metrics.inc ~labels:[ "delayed" ] ~by:s.delayed m_faults;
    Obs.Metrics.inc ~by:s.crashed_nodes m_crashed;
    Obs.Metrics.inc ~labels:[ mode ] m_mode_runs;
    Obs.Metrics.inc ~labels:[ mode ] ~by:s.rounds m_mode_rounds;
    let dt_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) |> max 0 in
    Obs.Metrics.inc ~labels:[ string_of_int domains ] ~by:dt_us m_run_wall
  end
