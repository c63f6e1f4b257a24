(* Regenerates every table and figure of the paper's evaluation:

   T1  data-race-test results for the four detector configurations
   T2  spin-window sensitivity (k = 3, 6, 7, 8)
   T3  PARSEC program inventory
   T4  PARSEC racy contexts, programs without ad-hoc synchronization
   T5  PARSEC racy contexts, programs with ad-hoc synchronization
   T6  the combined "universal race detector" table
   F1  detector memory consumption
   F2  runtime overhead

   plus Bechamel micro-benchmarks of the pipeline stages.  Compare the
   output against EXPERIMENTS.md.  With a subcommand it produces one
   measured artifact instead; see the subcommand table at the end. *)

let heading title = Printf.sprintf "\n==== %s ====\n" title
let section title = print_string (heading title); flush stdout

let tables () =
  section "Table 1: data-race-test suite (120 cases)";
  let rows1, t1 = Arde_harness.Suite_experiment.table1 () in
  print_string t1;
  section "Table 1a: failures by case category";
  print_string (Arde_harness.Suite_experiment.category_table rows1);
  section "Table 2: spinning-read-loop window sensitivity";
  let _rows, t2 = Arde_harness.Suite_experiment.table2 () in
  print_string t2;
  section
    "Table 2a (ablation): same sweep without counting condition-callee blocks";
  let ablation_options =
    Arde.Options.with_count_callee_blocks false
      Arde_harness.Suite_experiment.suite_options
  in
  let _rows, t2a =
    Arde_harness.Suite_experiment.table2 ~options:ablation_options ()
  in
  print_string t2a;
  section "Table 3: PARSEC 2.0 program inventory";
  print_string (Arde_harness.Parsec_experiment.table3 ());
  section "Table 4: racy contexts, programs without ad-hoc synchronization";
  let _r, t4 = Arde_harness.Parsec_experiment.table4 () in
  print_string t4;
  section "Table 5: racy contexts, programs with ad-hoc synchronization";
  let _r, t5 = Arde_harness.Parsec_experiment.table5 () in
  print_string t5;
  section "Table 6: universal race detector (all programs)";
  let _r, t6 = Arde_harness.Parsec_experiment.table6 () in
  print_string t6

(* The paper's stated future work, realized: identify the lock words of
   the lowered (unknown) library statically and rebuild the lockset, then
   compare the universal detector with and without it. *)
let extension_table () =
  section "Extension: universal detector + inferred lock words (future work)";
  let cases = Arde_workloads.Racey.all () in
  let rows =
    List.map
      (fun m -> Arde_harness.Suite_experiment.run_mode m cases)
      [ Arde.Config.Nolib_spin 7; Arde.Config.Nolib_spin_locks 7 ]
  in
  print_string (Arde_harness.Suite_experiment.render rows)

let figures () =
  section "Figure 1: detector memory consumption (heap words)";
  let _figs, f1, f2 = Arde_harness.Perf.run_figures ~repeats:3 () in
  print_string f1;
  section "Figure 2: runtime (ms per full run) and spin overhead ratio";
  print_string f2

(* Bechamel micro-benchmarks: one Test.make per reproduced artifact,
   exercising the pipeline stage that dominates it. *)
let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let flag_case =
    match Arde_workloads.Racey.find "adhoc_flag_w2/8" with
    | Some c -> c.Arde_workloads.Racey.program
    | None -> assert false
  in
  let compiled = Arde.Machine.compile flag_case in
  let inst = Arde.Instrument.analyze ~k:7 flag_case in
  let detect_once mode () =
    let engine = Arde.Engine.create (Arde.Config.make mode) ~instrument:(Some inst) in
    ignore
      (Arde.Machine.run
         {
           Arde.Machine.default_config with
           Arde.Machine.instrument = Some inst;
           observer = Arde.Engine.observer engine;
         }
         compiled)
  in
  let tests =
    [
      Test.make ~name:"T1:instrumentation-phase"
        (Staged.stage (fun () -> ignore (Arde.Instrument.analyze ~k:7 flag_case)));
      Test.make ~name:"T1:machine-only"
        (Staged.stage (fun () ->
             ignore (Arde.Machine.run Arde.Machine.default_config compiled)));
      Test.make ~name:"T1:hybrid-lib"
        (Staged.stage (detect_once Arde.Config.Helgrind_lib));
      Test.make ~name:"T2:hybrid-spin7"
        (Staged.stage (detect_once (Arde.Config.Helgrind_spin 7)));
      Test.make ~name:"T6:lowering"
        (Staged.stage (fun () -> ignore (Arde.Lower.lower flag_case)));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = List.map (fun t -> (Test.Elt.name (List.hd (Test.elements t)), Benchmark.all cfg instances t)) tests in
  section "Bechamel: per-stage timings (ns, monotonic clock)";
  List.iter
    (fun (name, tbl) ->
      Hashtbl.iter
        (fun _ result ->
          let ols =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Instance.monotonic_clock result
          in
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        tbl)
    raw

(* ---- the measured subcommands ----

   Each `bench SUBCOMMAND [-o PATH]` produces one [outcome]: the text it
   prints, the artifact it writes (to PATH, default the table's path)
   and its CI gate failures; {!emit} prints, writes and exits 1 on any
   failure.  All timing goes through [Arde_harness.Timing]: the
   monotonic clock, medians over repetitions after a discarded warm-up. *)

module J = Arde.Json
module Timing = Arde_harness.Timing

type outcome = { text : string; artifact : string; failures : string list }

let json ?(text = "") ?(failures = []) j =
  { text; artifact = J.to_string ~minify:false j ^ "\n"; failures }

let emit ~name ~out r =
  print_string r.text;
  let oc = open_out out in
  output_string oc r.artifact;
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  List.iter (Printf.eprintf "bench %s: FAIL: %s\n" name) r.failures;
  if r.failures <> [] then exit 1

(* `bench parallel` times the domain-pool per-seed stage at several pool
   widths and the analysis cache on/off.  Speedups are elapsed-time
   ratios, so they reflect the cores of the machine running the
   benchmark — [host_cores] is recorded alongside.  No gate. *)
let parallel_bench () =
  (* seconds of one run after a discarded warm-up *)
  let time f =
    let t, _, _ = Timing.timed ~repeats:1 f in
    t
  in
  let mode = Arde.Config.Nolib_spin 7 in
  (* every 15th catalog case: a cross-category sample with enough work
     per run for elapsed-time measurement to mean something *)
  let sample =
    List.filteri (fun i _ -> i mod 15 = 0) (Arde_workloads.Racey.all ())
  in
  let progs = List.map (fun c -> c.Arde_workloads.Racey.program) sample in
  let seeds = List.init 16 (fun i -> i + 1) in
  let opts jobs = Arde.Options.make ~seeds ~fuel:400_000 ~jobs () in
  let run_all jobs () =
    List.iter
      (fun p ->
        ignore
          (Arde.detect
             ~ctx:(Arde.Driver.ctx ~options:(opts jobs) ())
             ~mode (Arde.Input.Program p)))
      progs
  in
  (* per-stage times on one representative *)
  let rep = List.hd progs in
  Arde.Analysis_cache.clear ();
  let t_lower, _, lowered =
    Timing.timed ~repeats:1 (fun () ->
        Arde.Lower.lower ~style:Arde.Lower.Realistic rep)
  in
  let t_instrument = time (fun () -> Arde.Instrument.analyze ~k:7 lowered) in
  (* warm the cache so the sweep times the per-seed stage, not prepare *)
  run_all 1 ();
  (* widths beyond the physical cores would only measure oversubscription
     noise — skip them, but record what was skipped so a run on a small
     host is distinguishable from a run that covered everything *)
  let host_cores = Domain.recommended_domain_count () in
  let widths, skipped_widths =
    List.partition
      (fun j -> j <= host_cores)
      (List.sort_uniq compare [ 1; 2; 4; max 1 Arde.Options.default_jobs ])
  in
  let sweep = List.map (fun j -> (j, time (run_all j))) widths in
  let t_seq = List.assoc 1 sweep in
  (* the cache's contribution: same sequential sweep, cold every run *)
  Arde.Analysis_cache.set_enabled false;
  let t_nocache = time (run_all 1) in
  Arde.Analysis_cache.set_enabled true;
  let t_cached = time (run_all 1) in
  (* acceptance probe: a 5-seed run against the warm cache records hits *)
  Arde.Analysis_cache.reset_stats ();
  ignore
    (Arde.detect
       ~ctx:
         (Arde.Driver.ctx
            ~options:(Arde.Options.make ~seeds:[ 1; 2; 3; 4; 5 ] ())
            ())
       ~mode (Arde.Input.Program rep));
  let cs = Arde.Analysis_cache.stats () in
  json
    (J.Obj
       [
         ("host_cores", J.Int host_cores);
         ("skipped_widths", J.List (List.map (fun j -> J.Int j) skipped_widths));
         ("default_jobs", J.Int Arde.Options.default_jobs);
         ("mode", J.String (Arde.Config.mode_name mode));
         ("workloads", J.Int (List.length progs));
         ("seeds_per_run", J.Int (List.length seeds));
         ( "stages",
           J.Obj
             [
               ("lower_s", J.Float t_lower);
               ("instrument_s", J.Float t_instrument);
               ("per_seed_stage_s", J.Float t_seq);
             ] );
         ( "jobs_sweep",
           J.List
             (List.map
                (fun (j, t) ->
                  J.Obj
                    [
                      ("jobs", J.Int j);
                      ("wall_s", J.Float t);
                      ("speedup", J.Float (t_seq /. t));
                    ])
                sweep) );
         ( "cache",
           J.Obj
             [
               ("disabled_wall_s", J.Float t_nocache);
               ("enabled_wall_s", J.Float t_cached);
               ("speedup", J.Float (t_nocache /. t_cached));
               ("five_seed_run", Arde.Analysis_cache.stats_to_json cs);
             ] );
       ])

(* `bench engine` replays recorded traces through the optimized epoch
   engine and the frozen reference engine.  Gate: the optimized engine
   at least as fast on streamcluster under nolib+spin(7) and on every
   synthetic row, >= 2x on join-512, reports equal everywhere. *)
let engine_bench () =
  let module B = Arde_harness.Engine_bench in
  let rows = B.run ~repeats:5 () in
  json
    ~text:
      (heading "Engine differential: optimized vs reference, per trace"
      ^ B.render rows)
    ~failures:(B.gate rows) (B.to_json rows)

(* `bench machine` runs each workload × mode end-to-end on the compiled
   machine and on the frozen reference machine.  Gate: the optimized
   machine at least as fast on streamcluster under nolib+spin(7), every
   trace spot-check equal, the straight-line path allocation-free. *)
let machine_bench () =
  let module B = Arde_harness.Machine_bench in
  let results = B.run ~repeats:5 () in
  json
    ~text:
      (heading "Machine differential: compiled vs reference, end-to-end"
      ^ B.render results)
    ~failures:(B.gate results) (B.to_json results)

(* `bench replay` prices the recording sink against the bare machine's
   quiet fast path, and replayed detection against the live run it
   reproduces.  Gate: every replayed result identical to its live run,
   recording overhead <= 1.1x quiet on the headline configuration
   (Replay_bench.headline: swaptions under nolib+spin(7)). *)
let replay_bench () =
  let module B = Arde_harness.Replay_bench in
  let rows = B.run ~repeats:5 () in
  json
    ~text:
      (heading "Record/replay: sink overhead and replay throughput"
      ^ B.render rows)
    ~failures:(B.gate rows) (B.to_json rows)

(* `bench predict` differences a Predict analysis (two recorded
   executions plus the sync-preserving closure) against the 16-seed
   sweep on the racy and race-free catalog under the Table-1 modes, and
   prices predict-from-one-trace against the live sweep on swaptions.
   Gate: no sweep-found race missed, no predicted race vouched for by
   neither the sweep nor ground truth, predict-from-trace <= 0.25x the
   sweep's time, executions-per-race reduction >= 4x. *)
let predict_bench () =
  let module B = Arde_harness.Predict_bench in
  let t = B.run () in
  json
    ~text:
      (heading "Prediction: coverage, soundness and cost vs the 16-seed sweep"
      ^ B.render t)
    ~failures:(B.gate t) (B.to_json t)

(* `bench fixtures [--ref]` runs the full golden-trace enumeration
   (Trace_fixtures.groups) through the current machine (the frozen
   reference with --ref) and writes one summary line per run.  The
   committed file is the machine's correctness baseline: test_machine_diff
   replays the same enumeration and asserts every trace hash, length,
   step count and outcome is identical.  No gate. *)
let fixtures ~reference () =
  let module F = Arde_harness.Trace_fixtures in
  let t0 = Timing.now () in
  let rows =
    F.run_all (if reference then F.reference_machine else F.current_machine)
  in
  {
    text =
      Printf.sprintf "%d fixtures, %.1fs\n" (List.length rows)
        (Timing.now () -. t0);
    artifact = F.to_string rows;
    failures = [];
  }

(* ---- the serve load benchmark ----

   `bench serve` starts in-process daemons and drives them with
   concurrent clients over a mixed repeated/unique workload (analysis-
   heavy PARSEC programs under the lowering mode, plus unit-suite
   smalls), and compares served throughput against one-shot `arde run
   --format json` subprocess invocations of the same request list — the
   comparison the server exists to win: a one-shot process pays startup,
   parsing and the whole static phase on every request, while the
   daemon's resident caches reduce a repeat submission to per-seed
   execution.  Round 0 is the cold round (every program unseen); rounds
   1+ are the warm phase, and the headline number is warm-phase served
   throughput over one-shot throughput.  Two more phases follow: the
   bundle store across daemon restarts, and crash-only serving under a
   chaos plan.  Gate: no well-formed request refused or dropped,
   warm-cache speedup >= 1.0x, the chaos phase passing, the restart
   phase passing. *)

(* One request of a restart round: its name, latency and result JSON. *)
type served = string * float * string

(* One store-on/store-off repeat of the restart phase. *)
type restart_repeat = {
  on_cold : served list;
  on_warm : served list;
  on_restart : served list;
  off_cold : served list;
  off_warm : served list;
  off_restart : served list;
  store_stats : J.t;
}

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> rm_rf (Filename.concat p e))
        (try Sys.readdir p with Sys_error _ -> [||]);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let serve_bench () =
  let module P = Arde_server.Protocol in
  let module S = Arde_server.Server in
  let module C = Arde_server.Client in
  let module W = Arde_workloads in
  let die fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("bench serve: " ^ m);
        exit 1)
      fmt
  in
  let error_text resp =
    match P.response_error resp with
    | Some (c, m) -> c ^ ": " ^ m
    | None -> "refused"
  in
  (* A daemon for the duration of [f], drained and joined afterwards. *)
  let with_daemon label cfg f =
    match S.create cfg with
    | Error e -> die "%s%s" label e
    | Ok t ->
        let runner = Domain.spawn (fun () -> S.run t) in
        Fun.protect
          ~finally:(fun () ->
            S.initiate_drain t;
            Domain.join runner)
          f
  in
  (* The daemon's supervision stats ([J.Null] when unreachable): with
     detection in worker processes, the cache story lives here. *)
  let supervision socket =
    match C.connect ~endpoint:(C.Unix_socket socket) () with
    | Error _ -> J.Null
    | Ok cl ->
        Fun.protect
          ~finally:(fun () -> C.close cl)
          (fun () ->
            match C.stats cl with
            | Ok resp ->
                Option.value ~default:J.Null
                  (Option.bind (J.member "stats" resp) (J.member "supervision"))
            | Error _ -> J.Null)
  in
  let clients = 4 and rounds = 4 in
  (* [items] dealt round-robin to [clients] concurrent domains; [f cnum
     mine] serves client [cnum]'s share, each item with its index. *)
  let fan_out items f =
    let indexed = List.mapi (fun i x -> (i, x)) items in
    List.init clients (fun cnum ->
        Domain.spawn (fun () ->
            f cnum (List.filter (fun (i, _) -> i mod clients = cnum) indexed)))
    |> List.concat_map Domain.join
  in
  let seeds = 2 and fuel = 20_000 in
  let options = Arde.Options.make ~seeds:(List.init seeds (fun i -> i + 1)) ~fuel () in
  let parsec_reqs =
    List.filter_map
      (fun name ->
        match W.Catalog.find name with
        | Some (W.Catalog.Parsec (_, p)) ->
            Some (name, Arde.Pretty.program_to_string p,
                  Arde.Config.Nolib_spin 7)
        | _ -> None)
      [ "x264"; "dedup"; "facesim"; "ferret"; "vips"; "raytrace" ]
  in
  let small_reqs =
    List.map
      (fun c ->
        (c.W.Racey.name, Arde.Pretty.program_to_string c.W.Racey.program,
         Arde.Config.Helgrind_spin 7))
      (List.filteri (fun i _ -> i < 4) (W.Racey.all ()))
  in
  let one_round = parsec_reqs @ small_reqs in
  let requests =
    List.concat
      (List.init rounds (fun round ->
           List.map (fun r -> (round, r)) one_round))
  in
  let n_requests = List.length requests in

  (* ---- served phase: cold daemon, concurrent clients ---- *)
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "arde-bench-%d.sock" (Unix.getpid ()))
  in
  (* One worker per client: each worker holds one request in flight, so
     a narrower fleet would measure queue wait, not serving speed. *)
  let results, served_wall, supervision_stats =
    with_daemon ""
      (S.config ~workers:clients ~max_pending:256 ~socket_path:path ())
      (fun () ->
        let t0 = Timing.now () in
        let results =
          fan_out requests (fun _ mine ->
              match C.connect ~endpoint:(C.Unix_socket path) () with
              | Error e -> [ `Transport ("connect: " ^ e) ]
              | Ok cl ->
                  Fun.protect
                    ~finally:(fun () -> C.close cl)
                    (fun () ->
                      List.map
                        (fun (_, (round, (name, text, mode))) ->
                          let s = Timing.now () in
                          let r = C.run cl ~program:text ~mode ~options () in
                          let dt = Timing.now () -. s in
                          match r with
                          | Ok resp when P.response_ok resp -> `Ok (round, dt)
                          | Ok resp -> `Refused (name ^ ": " ^ error_text resp)
                          | Error e -> `Transport (name ^ ": " ^ e))
                        mine))
        in
        let wall = Timing.now () -. t0 in
        (results, wall, supervision path))
  in

  (* ---- restart phase: the persistent bundle store across daemons ----
     Three sequential rounds of the same mix — cold (fresh daemon, empty
     caches), warm (same daemon again), restart-warm (a NEW daemon on
     the same store directory) — measured with the store on and off.
     With the store on, the restarted daemon reloads prepared bundles
     from disk instead of recomputing, so its first round should run at
     near-warm speed; with it off, a restart is as expensive as a cold
     start.  The store-on/store-off pair runs [restart_repeats] times,
     each with a fresh store directory and fresh daemons, and the gated
     ratios are medians over the repeats.  Gates: every round's results
     byte-identical, restart-warm >= 0.8x warm (store on), and store-on
     restart-warm >= 2x restart-cold (the store-off restarted daemon's
     first pass). *)
  let restart_path = path ^ ".restart" in
  (* The restart rounds use detection-weight requests (8 seeds, 60k
     fuel) and walk the mix [restart_passes] times per round: a round is
     serving traffic, and the disk load in the restarted daemon is paid
     once per program, not per request.  Every round reports both its
     full-round throughput and its first-pass throughput; the
     restart-warm gate compares full rounds (steady traffic, store on),
     while the restart-cold baseline is the store-off restarted daemon's
     FIRST pass — the only pass on which every program is genuinely
     unseen again. *)
  let restart_options =
    Arde.Options.make ~seeds:(List.init 8 (fun i -> i + 1)) ~fuel:60_000 ()
  in
  let restart_passes = 4 and restart_repeats = 3 in
  let restart_round label : served list =
    match C.connect ~endpoint:(C.Unix_socket restart_path) () with
    | Error e -> die "restart %s: %s" label e
    | Ok cl ->
        Fun.protect
          ~finally:(fun () -> C.close cl)
          (fun () ->
            List.concat_map (fun _ -> one_round)
              (List.init restart_passes Fun.id)
            |> List.map (fun (name, text, mode) ->
                   let s = Timing.now () in
                   match
                     C.run cl ~program:text ~mode ~options:restart_options ()
                   with
                   | Ok resp when P.response_ok resp ->
                       let dt = Timing.now () -. s in
                       ( name,
                         dt,
                         J.to_string
                           (Option.value ~default:J.Null (J.member "result" resp))
                       )
                   | Ok resp ->
                       die "restart %s: %s refused: %s" label name
                         (error_text resp)
                   | Error e -> die "restart %s: %s: %s" label name e))
  in
  (* cold and warm rounds on one daemon, restart-warm on a second one;
     the store stats are the restarted daemon's *)
  let restart_phase ?store_dir () =
    let cfg =
      S.config ~workers:1 ~max_pending:256 ?store_dir
        ~socket_path:restart_path ()
    in
    let cold, warm =
      with_daemon "restart: " cfg (fun () ->
          let cold = restart_round "cold" in
          let warm = restart_round "warm" in
          (cold, warm))
    in
    let restart, sup =
      with_daemon "restart: " cfg (fun () ->
          let r = restart_round "restart-warm" in
          (r, supervision restart_path))
    in
    (cold, warm, restart, Option.value ~default:J.Null (J.member "store" sup))
  in
  let restart_repeat i =
    let store_dir = Printf.sprintf "%s.store%d" path i in
    rm_rf store_dir;
    let on_cold, on_warm, on_restart, store_stats =
      restart_phase ~store_dir ()
    in
    rm_rf store_dir;
    let off_cold, off_warm, off_restart, _ = restart_phase () in
    { on_cold; on_warm; on_restart; off_cold; off_warm; off_restart; store_stats }
  in
  let repeats = List.init restart_repeats restart_repeat in
  let round_rps (round : served list) =
    let wall = List.fold_left (fun a (_, dt, _) -> a +. dt) 0. round in
    if wall > 0. then float_of_int (List.length round) /. wall else 0.
  in
  let first_pass round =
    let n = List.length one_round in
    List.filteri (fun i _ -> i < n) round
  in
  let warm_ratio r =
    let w = round_rps r.on_warm in
    if w > 0. then round_rps r.on_restart /. w else 0.
  in
  (* Store-on restart round (steady traffic) vs restart-cold: the
     store-off restarted daemon's first pass, where every prepared
     bundle has to be recomputed from scratch. *)
  let on_off_ratio r =
    let off = round_rps (first_pass r.off_restart) in
    if off > 0. then round_rps r.on_restart /. off else 0.
  in
  (* Result identity across every round of every repeat and both store
     configurations: the store must be invisible in the responses. *)
  let restart_identical =
    let all_rounds =
      List.concat_map
        (fun r ->
          [ r.on_cold; r.on_warm; r.on_restart; r.off_cold; r.off_warm;
            r.off_restart ])
        repeats
    in
    List.for_all
      (fun (name, _, r0) ->
        List.for_all
          (List.exists (fun (n, _, r) -> n = name && r = r0))
          all_rounds)
      (List.hd repeats).on_cold
  in
  let restart_warm_ratio = Timing.median (List.map warm_ratio repeats) in
  let restart_on_off_ratio = Timing.median (List.map on_off_ratio repeats) in
  (* the rounds reported in full: the repeat with the median warm ratio *)
  let shown = List.find (fun r -> warm_ratio r = restart_warm_ratio) repeats in
  let restart_pass =
    restart_identical && restart_warm_ratio >= 0.8
    && restart_on_off_ratio >= 2.0
  in
  let latencies =
    List.filter_map (function `Ok rd -> Some rd | _ -> None) results
  in
  let refused =
    List.filter_map (function `Refused m -> Some m | _ -> None) results
  in
  let dropped =
    List.filter_map (function `Transport m -> Some m | _ -> None) results
  in
  let warm = List.filter_map
      (fun (round, dt) -> if round > 0 then Some dt else None) latencies in
  let cold = List.filter_map
      (fun (round, dt) -> if round = 0 then Some dt else None) latencies in

  (* ---- one-shot baseline: `arde run --format json` subprocesses ----
     One subprocess per request of one round's mix: per-request one-shot
     cost is round-independent (cold every time), so one round measures
     it.  Falls back to in-process cold-cache detection when the CLI
     binary is not next to the bench (recorded in the artifact). *)
  let cli_binary =
    match Sys.getenv_opt "ARDE_BIN" with
    | Some p when Sys.file_exists p -> Some p
    | Some _ | None ->
        let sibling =
          Filename.concat
            (Filename.dirname (Filename.dirname Sys.executable_name))
            "bin/arde_cli.exe"
        in
        if Sys.file_exists sibling then Some sibling else None
  in
  let oneshot_kind, oneshot_wall =
    match cli_binary with
    | Some bin ->
        let files =
          List.map
            (fun (name, text, mode) ->
              let slug =
                String.map (fun c -> if c = '/' then '_' else c) name
              in
              let file = Filename.temp_file ("arde-bench-" ^ slug) ".tir" in
              let oc = open_out file in
              output_string oc text;
              close_out oc;
              (name, file, mode))
            one_round
        in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun (_, f, _) -> try Sys.remove f with Sys_error _ -> ())
              files)
          (fun () ->
            let t0 = Timing.now () in
            List.iter
              (fun (name, file, mode) ->
                let cmd =
                  Printf.sprintf
                    "%s run %s -m %s --seeds %d --fuel %d --format json > /dev/null"
                    (Filename.quote bin) (Filename.quote file)
                    (Filename.quote (Arde.Config.mode_id mode))
                    seeds fuel
                in
                let rc = Sys.command cmd in
                if rc > 3 then
                  die "one-shot baseline failed on %s (exit %d)" name rc)
              files;
            ("subprocess", Timing.now () -. t0))
    | None ->
        prerr_endline
          "bench serve: arde binary not found (set ARDE_BIN); falling back \
           to in-process baseline";
        let t0 = Timing.now () in
        List.iter
          (fun (_, text, mode) ->
            Arde.Analysis_cache.clear ();
            match Arde.Parse.program text with
            | Error _ -> ()
            | Ok p ->
                ignore
                  (Arde.detect
                     ~ctx:(Arde.Driver.ctx ~options ())
                     ~mode (Arde.Input.Program p)))
          one_round;
        ("in-process", Timing.now () -. t0)
  in

  (* ---- chaos phase: the same serving stack under injected crashes ----
     A fresh daemon with a fault plan that SIGKILLs each worker on every
     5th request; clients retry with bounded backoff.  The phase gates on
     crash-only behaviour, not speed: every request completes, crashes
     and restarts stay proportional to the plan, and a crash bundle is
     sealed for each kill. *)
  let chaos_kill_every = 5 in
  let chaos_path = path ^ ".chaos" in
  let chaos_results, chaos_wall, chaos_sup =
    with_daemon "chaos: "
      (S.config ~workers:2 ~max_pending:256 ~restart_backoff_ms:20
         ~chaos_plan:(Printf.sprintf "kill:%d" chaos_kill_every)
         ~socket_path:chaos_path ())
      (fun () ->
        let t0 = Timing.now () in
        let results =
          fan_out one_round (fun cnum mine ->
              List.map
                (fun (i, (name, text, mode)) ->
                  let policy =
                    C.retry_policy ~attempts:10 ~backoff_ms:10
                      ~max_backoff_ms:200 ~jitter_seed:(cnum + i) ()
                  in
                  let outcome, retries =
                    C.submit_with_retry ~endpoint:(C.Unix_socket chaos_path)
                      ~policy ~program:text ~mode ~options ()
                  in
                  match outcome with
                  | Ok resp when P.response_ok resp -> `Ok retries
                  | Ok resp -> `Failed (name ^ ": " ^ error_text resp)
                  | Error e -> `Failed (name ^ ": " ^ e))
                mine)
        in
        let wall = Timing.now () -. t0 in
        (results, wall, supervision chaos_path))
  in
  let chaos_ok =
    List.length (List.filter (function `Ok _ -> true | _ -> false) chaos_results)
  in
  let chaos_failed =
    List.filter_map (function `Failed m -> Some m | _ -> None) chaos_results
  in
  let chaos_retries =
    List.fold_left
      (fun acc -> function `Ok r -> acc + r | _ -> acc)
      0 chaos_results
  in
  let chaos_int key =
    match Option.bind (J.member key chaos_sup) J.to_int with
    | Some n -> n
    | None -> -1
  in
  let chaos_crashes = chaos_int "crashes"
  and chaos_restarts = chaos_int "restarts"
  and chaos_bundles = chaos_int "bundles_sealed" in
  (* Every kill is one crash; executions = requests + retries.  Allow +2
     slack for kills landing between requests of different clients. *)
  let chaos_crash_bound =
    ((List.length one_round + chaos_retries) / chaos_kill_every) + 2
  in
  let chaos_pass =
    chaos_failed = [] && chaos_crashes > 0
    && chaos_crashes <= chaos_crash_bound
    && chaos_restarts <= chaos_crash_bound
    && chaos_bundles > 0
  in

  let ms q sample = 1000. *. Timing.percentile q sample in
  let latency_json sample =
    J.Obj
      [
        ("p50", J.Float (ms 0.50 sample));
        ("p95", J.Float (ms 0.95 sample));
        ("p99", J.Float (ms 0.99 sample));
        ("max", J.Float (ms 1.0 sample));
      ]
  in
  let served_rps =
    float_of_int (List.length latencies) /. served_wall
  in
  (* The warm phase's own throughput: the warm rounds ran concurrently
     with the cold round, so sum per-request latency and divide by the
     effective parallelism instead of slicing elapsed time. *)
  let sum = List.fold_left ( +. ) 0. in
  let phase_rps sample =
    if sample = [] then 0.
    else
      let busy = sum sample /. float_of_int clients in
      float_of_int (List.length sample) /. busy
  in
  let warm_rps = phase_rps warm and cold_rps = phase_rps cold in
  let oneshot_rps = float_of_int (List.length one_round) /. oneshot_wall in
  let overall_speedup =
    if oneshot_rps > 0. then served_rps /. oneshot_rps else 0.
  in
  let warm_speedup = if oneshot_rps > 0. then warm_rps /. oneshot_rps else 0. in
  let ci_pass =
    refused = [] && dropped = [] && warm_speedup >= 1.0 && chaos_pass
    && restart_pass
  in
  let all_lat = List.map snd latencies in
  let round_json (round : served list) =
    let lats = List.map (fun (_, dt, _) -> dt) round in
    J.Obj
      [
        ("requests", J.Int (List.length round));
        ("throughput_rps", J.Float (round_rps round));
        ("first_pass_rps", J.Float (round_rps (first_pass round)));
        ("latency_ms", latency_json lats);
      ]
  in
  let artifact =
    J.Obj
      [
        ("bench", J.String "serve");
        ( "host",
          J.Obj [ ("cores", J.Int (Domain.recommended_domain_count ())) ] );
        ( "config",
          J.Obj
            [
              ("clients", J.Int clients);
              ("workers", J.Int clients);
              ("rounds", J.Int rounds);
              ("requests", J.Int n_requests);
              ("unique_programs", J.Int (List.length one_round));
              ("parsec_mode",
               J.String (Arde.Config.mode_id (Arde.Config.Nolib_spin 7)));
              ("seeds_per_request", J.Int seeds);
              ("fuel", J.Int fuel);
              ("max_pending", J.Int 256);
            ] );
        ( "served",
          J.Obj
            [
              ("wall_s", J.Float served_wall);
              ("throughput_rps", J.Float served_rps);
              ("latency_ms", latency_json all_lat);
              ( "cold_round",
                J.Obj
                  [
                    ("requests", J.Int (List.length cold));
                    ("throughput_rps", J.Float cold_rps);
                    ("latency_ms", latency_json cold);
                  ] );
              ( "warm_rounds",
                J.Obj
                  [
                    ("requests", J.Int (List.length warm));
                    ("throughput_rps", J.Float warm_rps);
                    ("latency_ms", latency_json warm);
                  ] );
              ("ok", J.Int (List.length latencies));
              ("refused", J.Int (List.length refused));
              ("dropped", J.Int (List.length dropped));
              ("supervision", supervision_stats);
            ] );
        ( "oneshot",
          J.Obj
            [
              ("kind", J.String oneshot_kind);
              ("requests", J.Int (List.length one_round));
              ("wall_s", J.Float oneshot_wall);
              ("throughput_rps", J.Float oneshot_rps);
            ] );
        ( "restart",
          J.Obj
            [
              ( "requests_per_round",
                J.Int (List.length one_round * restart_passes) );
              ("passes_per_round", J.Int restart_passes);
              ("seeds_per_request", J.Int 8);
              ("fuel", J.Int 60_000);
              ( "store_on",
                J.Obj
                  [
                    ("cold", round_json shown.on_cold);
                    ("warm", round_json shown.on_warm);
                    ("restart_warm", round_json shown.on_restart);
                  ] );
              ( "store_off",
                J.Obj
                  [
                    ("cold", round_json shown.off_cold);
                    ("warm", round_json shown.off_warm);
                    ("restart_warm", round_json shown.off_restart);
                  ] );
              ("store_stats", shown.store_stats);
              ("results_identical", J.Bool restart_identical);
              ("restart_warm_over_warm", J.Float restart_warm_ratio);
              ("restart_warm_over_restart_cold", J.Float restart_on_off_ratio);
              ( "repeats",
                J.List
                  (List.map
                     (fun r ->
                       J.Obj
                         [
                           ("restart_warm_over_warm", J.Float (warm_ratio r));
                           ( "restart_warm_over_restart_cold",
                             J.Float (on_off_ratio r) );
                         ])
                     repeats) );
              ("min_restart_warm_over_warm", J.Float 0.8);
              ("min_restart_warm_over_restart_cold", J.Float 2.0);
              ("pass", J.Bool restart_pass);
            ] );
        ( "chaos",
          J.Obj
            [
              ("plan", J.String (Printf.sprintf "kill:%d" chaos_kill_every));
              ("requests", J.Int (List.length one_round));
              ("ok", J.Int chaos_ok);
              ("failed", J.Int (List.length chaos_failed));
              ("retries", J.Int chaos_retries);
              ("wall_s", J.Float chaos_wall);
              ( "throughput_rps",
                J.Float (float_of_int chaos_ok /. chaos_wall) );
              ("supervision", chaos_sup);
              ("pass", J.Bool chaos_pass);
            ] );
        ("speedup", J.Float warm_speedup);
        ("overall_speedup", J.Float overall_speedup);
        ( "gate",
          J.Obj
            [
              ("min_warm_speedup_ci", J.Float 1.0);
              ("target_warm_speedup", J.Float 1.5);
              ("pass_ci", J.Bool ci_pass);
              ("meets_target", J.Bool (ci_pass && warm_speedup >= 1.5));
            ] );
      ]
  in
  let text =
    heading "Serve: daemon vs one-shot `arde run`, same request mix"
    ^ Printf.sprintf
        "%d requests, %d clients: served %.2f req/s (p50 %.0f ms, p95 %.0f \
         ms, p99 %.0f ms)\n\
         warm rounds %.2f req/s (p95 %.0f ms); one-shot (%s) %.2f req/s\n\
         warm-cache speedup %.2fx (overall %.2fx)\n"
        n_requests clients served_rps (ms 0.50 all_lat) (ms 0.95 all_lat)
        (ms 0.99 all_lat) warm_rps (ms 0.95 warm) oneshot_kind oneshot_rps
        warm_speedup overall_speedup
    ^ Printf.sprintf
        "restart (median of %d repeats): store on — cold %.2f, warm %.2f, \
         restart-warm %.2f req/s; restart-cold (store off, first pass) \
         %.2f req/s\n\
         restart-warm/warm %.2fx (gate >= 0.8; repeats %s), \
         restart-warm/restart-cold %.2fx (gate >= 2.0; repeats %s), \
         results %s\n"
        restart_repeats
        (round_rps (first_pass shown.on_cold))
        (round_rps shown.on_warm) (round_rps shown.on_restart)
        (round_rps (first_pass shown.off_restart))
        restart_warm_ratio
        (String.concat " "
           (List.map (fun r -> Printf.sprintf "%.2f" (warm_ratio r)) repeats))
        restart_on_off_ratio
        (String.concat " "
           (List.map (fun r -> Printf.sprintf "%.2f" (on_off_ratio r)) repeats))
        (if restart_identical then "identical" else "DIVERGED")
    ^ Printf.sprintf
        "chaos (kill:%d): %d/%d ok, %d retries, %d crashes, %d restarts, %d \
         bundles sealed\n"
        chaos_kill_every chaos_ok (List.length one_round) chaos_retries
        chaos_crashes chaos_restarts chaos_bundles
  in
  let failures =
    List.map (( ^ ) "refused: ") refused
    @ List.map (( ^ ) "dropped: ") dropped
    @ List.map (( ^ ) "chaos failed: ") chaos_failed
    @
    if ci_pass then []
    else
      [
        Printf.sprintf
          "%d refused, %d dropped, warm speedup %.2fx, chaos %s, restart %s \
           (gate: 0 refused, 0 dropped, >= 1.0x, chaos pass, restart-warm \
           >= 0.8x warm and >= 2x restart-cold with identical results)"
          (List.length refused) (List.length dropped) warm_speedup
          (if chaos_pass then "pass" else "FAIL")
          (if restart_pass then "pass" else "FAIL");
      ]
  in
  json ~text ~failures artifact

(* ---- the subcommand table ---- *)

let subcommands ~reference =
  [
    ("parallel", "BENCH_parallel.json", parallel_bench);
    ("engine", "BENCH_engine.json", engine_bench);
    ("machine", "BENCH_machine.json", machine_bench);
    ("replay", "BENCH_replay.json", replay_bench);
    ("predict", "BENCH_predict.json", predict_bench);
    ("serve", "BENCH_serve.json", serve_bench);
    ("fixtures", "test/fixtures/machine_traces.txt", fixtures ~reference);
  ]

let usage () =
  prerr_string
    "usage: main.exe                         every table and figure\n\
    \       main.exe SUBCOMMAND [-o PATH]    one measured artifact\n\
    \       main.exe fixtures [--ref] [-o PATH]\n\
     subcommands (default output):\n";
  List.iter
    (fun (name, out, _) -> Printf.eprintf "  %-10s %s\n" name out)
    (subcommands ~reference:false);
  exit 2

let () =
  (* The serve benchmark hosts a supervisor whose workers re-exec this
     very binary; the hook must intercept the marker first. *)
  Arde_server.Worker.hook ();
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      tables ();
      extension_table ();
      figures ();
      bechamel_suite ()
  | sub :: flags -> (
      let rec parse out reference = function
        | [] -> Some (out, reference)
        | "-o" :: p :: rest -> parse (Some p) reference rest
        | "--ref" :: rest when sub = "fixtures" -> parse out true rest
        | _ -> None
      in
      match parse None false flags with
      | None -> usage ()
      | Some (out, reference) -> (
          match
            List.find_opt (fun (n, _, _) -> n = sub) (subcommands ~reference)
          with
          | None -> usage ()
          | Some (name, default, run) ->
              emit ~name ~out:(Option.value out ~default) (run ())))
