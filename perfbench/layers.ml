(* Layer probe of the benchmark runner (perfbench/run.py).

   Runs one planarity-tester pass the way `planartest test --stats-json`
   does — Gio.load, Tester.Harness.run with the Stage2 Oracle callback,
   Report.tester_stats + Report.write — and times each layer from the
   outside: wall clock and GC allocation around calls into the layers'
   public functions, plus deltas of the Obs.Metrics counters the engine
   keeps (congest_run_wall_us, congest_runs, congest_mode_runs, ...).
   Stage I phase boundaries come from the harness checkpoint hook, which
   Stage1.run ?on_phase drives.  The harness builds a snapshot for the
   hook at every phase boundary (copying the Stats and the Telemetry
   series), so that cost lands in partition.wall_s and
   partition.alloc_mwords and is part of trace.overhead_pct.

     layers.exe --family grid --n 4096 --param 0.2 --graph-seed 1 \
       --eps 0.1 --seed 1 --mode compiled --input g.txt --stats-json s.json

   Prints one JSON object of raw per-layer numbers on stdout; run.py
   derives the reported metrics from it. *)

open Graphlib

let now = Unix.gettimeofday

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* One reading of the counters a layer boundary needs. *)
type probe = {
  t : float;
  words : float;
  run_wall_us : int;
  runs : int;
  compiled_runs : int;
  mode_runs : int;
  messages : int;
  rounds : int;
  ff_rounds : int;
}

let probe () =
  let fams = Obs.Metrics.snapshot () in
  let sum ?label name =
    List.fold_left
      (fun acc (f : Obs.Metrics.family) ->
        if f.name <> name then acc
        else
          List.fold_left
            (fun acc (s : Obs.Metrics.series) ->
              match (s.value, label) with
              | Obs.Metrics.Counter_v v, None -> acc + v
              | Obs.Metrics.Counter_v v, Some l
                when List.exists (fun (_, x) -> x = l) s.labels ->
                  acc + v
              | _ -> acc)
            acc f.series)
      0 fams
  in
  {
    t = now ();
    words = alloc_words ();
    run_wall_us = sum "congest_run_wall_us";
    runs = sum "congest_runs";
    compiled_runs = sum ~label:"compiled" "congest_mode_runs";
    mode_runs = sum "congest_mode_runs";
    messages = sum "congest_messages";
    rounds = sum "congest_rounds";
    ff_rounds = sum "congest_fast_forwarded_rounds";
  }

let engine_s a b = float_of_int (b.run_wall_us - a.run_wall_us) /. 1e6

(* Same generator calls as `planartest gen` for the benchmark families. *)
let generate ~family ~n ~param ~graph_seed =
  let rng = Random.State.make [| graph_seed |] in
  match family with
  | "grid" ->
      let rows, cols = Generators.grid_dims n in
      Generators.grid rows cols
  | "apollonian" -> Generators.apollonian rng n
  | "far" -> Generators.far_from_planar rng ~n ~eps:param
  | f -> failwith ("layers: unsupported family " ^ f)

let () =
  let family = ref "" and n = ref 0 and param = ref 0.2 in
  let graph_seed = ref 0 and eps = ref 0.1 and seed = ref 0 in
  let mode_name = ref "fiber" and input = ref "" and stats_out = ref "" in
  Arg.parse
    [
      ("--family", Arg.Set_string family, "F graph family");
      ("--n", Arg.Set_int n, "N vertices");
      ("--param", Arg.Set_float param, "P family parameter");
      ("--graph-seed", Arg.Set_int graph_seed, "G generator seed");
      ("--eps", Arg.Set_float eps, "E distance parameter");
      ("--seed", Arg.Set_int seed, "S tester seed");
      ("--mode", Arg.Set_string mode_name, "M execution mode");
      ("--input", Arg.Set_string input, "PATH graph file to write and load");
      ("--stats-json", Arg.Set_string stats_out, "PATH stats JSON output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "layers.exe [options]";
  if !family = "" || !input = "" || !stats_out = "" then begin
    prerr_endline "layers: --family, --input and --stats-json are required";
    exit 2
  end;
  let mode =
    match Congest.Compiled.mode_of_string !mode_name with
    | Some m -> m
    | None ->
        prerr_endline ("layers: unknown --mode " ^ !mode_name);
        exit 2
  in
  Obs.Log.set_level Obs.Log.Warn;
  Obs.Metrics.set_enabled true;
  let eps = !eps and seed = !seed in
  (* graphlib: generation and the input-file write are set-up work. *)
  let t0 = now () in
  let g0 =
    generate ~family:!family ~n:!n ~param:!param ~graph_seed:!graph_seed
  in
  let gen_s = now () -. t0 in
  let t0 = now () in
  Gio.save !input g0;
  let write_s = now () -. t0 in
  (* The traced run proper: everything `planartest test` does. *)
  let p_start = probe () in
  let g = Gio.load !input in
  let p_loaded = probe () in
  let telemetry = Congest.Telemetry.create () in
  let phase_ends = ref [] in
  let checkpoint =
    {
      Tester.Harness.save = (fun _ -> phase_ends := now () :: !phase_ends);
      load = (fun () -> None);
      every = 1;
    }
  in
  let stage2_span = ref None in
  let stage2 st ~eps ~seed =
    let stats = st.Partition.State.stats in
    let r0 = stats.Congest.Stats.rounds
    and b0 = stats.Congest.Stats.total_bits in
    let a = probe () in
    let res = Tester.Stage2.run ~embedding:Tester.Stage2.Oracle st ~eps ~seed in
    let b = probe () in
    stage2_span :=
      Some
        ( a,
          b,
          stats.Congest.Stats.rounds - r0,
          stats.Congest.Stats.total_bits - b0 );
    res
  in
  let s2, totals =
    Tester.Harness.run ~seed ~domains:1 ~mode ~telemetry ~checkpoint
      ~property:"planarity" ~stage2 g ~eps
  in
  let p_harness = probe () in
  let report =
    {
      Tester.Planarity_tester.verdict = totals.Tester.Harness.verdict;
      stage1 = totals.Tester.Harness.stage1;
      stage2 = s2;
      rounds = totals.Tester.Harness.rounds;
      nominal_rounds = totals.Tester.Harness.nominal_rounds;
      messages = totals.Tester.Harness.messages;
      total_bits = totals.Tester.Harness.total_bits;
      fast_forwarded_rounds = totals.Tester.Harness.fast_forwarded_rounds;
      dropped = totals.Tester.Harness.dropped;
      duplicated = totals.Tester.Harness.duplicated;
      delayed = totals.Tester.Harness.delayed;
      crashed_nodes = totals.Tester.Harness.crashed_nodes;
    }
  in
  let t0 = now () in
  Report.write !stats_out
    (Report.tester_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps ~seed ~domains:1
       ~telemetry report);
  let p_end = probe () in
  let report_s = p_end.t -. t0 in
  let report_bytes = (Unix.stat !stats_out).Unix.st_size in
  (* Stage I ends where Stage II starts; when Stage II is bypassed, at the
     harness return (the verdict plumbing after it is microseconds). *)
  let p_s1_end =
    match !stage2_span with Some (a, _, _, _) -> a | None -> p_harness
  in
  let bounds = List.rev (p_s1_end.t :: !phase_ends) in
  let phase_max_s, _ =
    List.fold_left
      (fun (mx, prev) t -> (max mx (t -. prev), t))
      (0.0, p_loaded.t) bounds
  in
  (* planarity: replay the Oracle step's Lr.embed_or_adjacency calls on
     the induced parts of the final partition, after the timed run (the
     call inside Stage2.run cannot be timed from outside).  replay_s is
     the whole replay, part construction included, so run.py can take it
     out of the process's wall. *)
  let t_replay = now () in
  let embed_s, embed_parts =
    match (!stage2_span, totals.Tester.Harness.stage1) with
    | Some _, Some r ->
        let parts = Partition.State.parts r.Partition.Stage1.state in
        let subs =
          List.map (fun (_, members) -> fst (Graph.induced g members)) parts
        in
        let t0 = now () in
        List.iter (fun sub -> ignore (Planarity.Lr.embed_or_adjacency sub)) subs;
        (now () -. t0, List.length subs)
    | _ -> (0.0, 0)
  in
  let replay_s = now () -. t_replay in
  let s2_wall, s2_engine, s2_words, s2_rounds, s2_bits =
    match !stage2_span with
    | Some (a, b, r, bits) ->
        (b.t -. a.t, engine_s a b, b.words -. a.words, r, bits)
    | None -> (0.0, 0.0, 0.0, 0, 0)
  in
  let verdict =
    match totals.Tester.Harness.verdict with
    | Tester.Harness.Accept -> "accept"
    | Tester.Harness.Reject _ -> "reject"
    | Tester.Harness.Degraded _ -> "degraded"
  in
  let fields =
    [
      ("verdict", Printf.sprintf "%S" verdict);
      ("rounds", string_of_int totals.Tester.Harness.rounds);
      ("nominal_rounds", string_of_int totals.Tester.Harness.nominal_rounds);
      ("messages", string_of_int totals.Tester.Harness.messages);
      ("total_bits", string_of_int totals.Tester.Harness.total_bits);
      ( "fast_forwarded_rounds",
        string_of_int totals.Tester.Harness.fast_forwarded_rounds );
      ("gen_s", Printf.sprintf "%.9g" gen_s);
      ("write_s", Printf.sprintf "%.9g" write_s);
      ("load_s", Printf.sprintf "%.9g" (p_loaded.t -. p_start.t));
      ("partition_wall_s", Printf.sprintf "%.9g" (p_s1_end.t -. p_loaded.t));
      ("partition_engine_s", Printf.sprintf "%.9g" (engine_s p_loaded p_s1_end));
      ( "partition_alloc_words",
        Printf.sprintf "%.0f" (p_s1_end.words -. p_loaded.words) );
      ("partition_phases", string_of_int (List.length bounds));
      ("partition_phase_max_s", Printf.sprintf "%.9g" phase_max_s);
      ("stage2_wall_s", Printf.sprintf "%.9g" s2_wall);
      ("stage2_engine_s", Printf.sprintf "%.9g" s2_engine);
      ("stage2_alloc_words", Printf.sprintf "%.0f" s2_words);
      ("stage2_rounds", string_of_int s2_rounds);
      ("stage2_bits", string_of_int s2_bits);
      ("congest_wall_s", Printf.sprintf "%.9g" (engine_s p_start p_end));
      ("congest_runs", string_of_int (p_end.runs - p_start.runs));
      ( "congest_compiled_runs",
        string_of_int (p_end.compiled_runs - p_start.compiled_runs) );
      ("congest_mode_runs", string_of_int (p_end.mode_runs - p_start.mode_runs));
      ("congest_messages", string_of_int (p_end.messages - p_start.messages));
      ("congest_rounds", string_of_int (p_end.rounds - p_start.rounds));
      ("congest_ff_rounds", string_of_int (p_end.ff_rounds - p_start.ff_rounds));
      ("embed_s", Printf.sprintf "%.9g" embed_s);
      ("embed_parts", string_of_int embed_parts);
      ("replay_s", Printf.sprintf "%.9g" replay_s);
      ("report_s", Printf.sprintf "%.9g" report_s);
      ("report_bytes", string_of_int report_bytes);
    ]
  in
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s\"%s\": %s" (if i > 0 then ", " else "") k v)
    fields;
  print_endline "}"
