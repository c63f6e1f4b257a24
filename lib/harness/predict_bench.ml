(* The prediction benchmark: difference a Predict analysis (two
   recorded executions plus the sync-preserving closure) against the
   16-seed sweep it stands in for, on the racy catalog for coverage,
   the race-free catalog for soundness, and swaptions for cost.  Feeds
   BENCH_predict.json and the CI gate. *)

module Config = Arde.Config
module Driver = Arde.Driver
module Options = Arde.Options
module Report = Arde.Report
module J = Arde.Json

type row = {
  p_workload : string;
  p_mode : string;
  p_racy : bool;
  p_sweep_execs : int;
  p_sweep_contexts : int;
  p_sweep_s : float;
  p_predict_execs : int;
  p_predict_contexts : int;
  p_predicted_new : int;
  p_predicted_tagged : int;
  p_predicted_fp : int;
  p_predict_s : float;
  p_missed : int;
}

type timing = {
  t_workload : string;
  t_mode : string;
  t_sweep_execs : int;
  t_sweep_s : float;
  t_predict_s : float;
  t_ratio : float;
}

type summary = {
  s_sweep_execs : int;
  s_sweep_contexts : int;
  s_predict_execs : int;
  s_predict_contexts : int;
  s_sweep_execs_per_race : float;
  s_predict_execs_per_race : float;
  s_reduction : float;
}

type t = { rows : row list; timing : timing; summary : summary }

(* A context key matching the merge's identity: base plus the unordered
   pair of access locations. *)
let context_keys report =
  List.map
    (fun r ->
      let a = r.Report.r_first_loc and b = r.Report.r_second_loc in
      let lo, hi = if compare a b <= 0 then (a, b) else (b, a) in
      (r.Report.r_base, lo, hi))
    (Report.races report)

let bench_case ~fuel ~seeds (case : Arde_workloads.Racey.case) mode =
  let options = Options.make ~seeds ~fuel () in
  let input = Arde.Input.Program case.program in
  let t0 = Timing.now () in
  let sweep = Arde.detect ~ctx:(Driver.ctx ~options ()) ~mode input in
  let sweep_s = Timing.now () -. t0 in
  let poptions = Options.with_analysis Options.Predict options in
  let t0 = Timing.now () in
  let pred = Arde.detect ~ctx:(Driver.ctx ~options:poptions ()) ~mode input in
  let predict_s = Timing.now () -. t0 in
  let pred_keys = context_keys pred.Driver.merged in
  let sweep_keys = context_keys sweep.Driver.merged in
  let missed =
    List.filter (fun k -> not (List.mem k pred_keys)) sweep_keys
  in
  let tagged =
    List.filter
      (fun r -> r.Report.r_predicted)
      (Report.races pred.Driver.merged)
  in
  (* A predicted false positive is a predicted context the 16-seed
     sweep never reports AND that ground truth does not vouch for.  A
     predicted context the sweep also finds (even a detector false
     alarm, like double-checked locking under lockset modes) is
     prediction agreeing with the detector it stands in for; a fresh
     context on a ground-truth racy base is predictive headroom — a
     real race the sixteen schedules happened to miss. *)
  let truth_bases =
    match case.expectation with
    | Arde.Classify.Racy bases -> bases
    | _ -> []
  in
  let predicted_fp =
    List.filter
      (fun r ->
        let a = r.Report.r_first_loc and b = r.Report.r_second_loc in
        let lo, hi = if compare a b <= 0 then (a, b) else (b, a) in
        (not (List.mem (r.Report.r_base, lo, hi) sweep_keys))
        && not (List.mem r.Report.r_base truth_bases))
      tagged
  in
  {
    p_workload = case.name;
    p_mode = Config.mode_name mode;
    p_racy =
      (match case.expectation with
      | Arde.Classify.Racy _ -> true
      | _ -> false);
    p_sweep_execs = List.length sweep.Driver.runs;
    p_sweep_contexts = Report.n_contexts sweep.Driver.merged;
    p_sweep_s = sweep_s;
    p_predict_execs = List.length pred.Driver.runs;
    p_predict_contexts = Report.n_contexts pred.Driver.merged;
    p_predicted_new =
      (match pred.Driver.prediction with
      | Some p -> p.Driver.pr_new_contexts
      | None -> 0);
    p_predicted_tagged = List.length tagged;
    p_predicted_fp = List.length predicted_fp;
    p_predict_s = predict_s;
    p_missed = List.length missed;
  }

(* The cost half runs where the "two executions instead of sixteen"
   claim is priced: a compute-bound PARSEC workload.  The predict side
   consumes a one-seed recording — replay plus closure, zero program
   executions — against the full live sweep. *)
let timing_workload = "swaptions"
let timing_mode = Config.Nolib_spin 7

let time_parsec ~repeats ~fuel ~seeds =
  match Arde_workloads.Parsec.find timing_workload with
  | None -> failwith "bench predict: no workload swaptions"
  | Some (_info, program) ->
      let options = Options.make ~seeds ~fuel () in
      let input = Arde.Input.Program program in
      let sweep_s, _, sweep =
        Timing.timed ~repeats (fun () ->
            Arde.detect ~ctx:(Driver.ctx ~options ()) ~mode:timing_mode input)
      in
      let record_ctx =
        Driver.ctx ~options:(Options.make ~seeds:[ List.hd seeds ] ~fuel ()) ()
      in
      let recording =
        match
          Arde.record ~ctx:record_ctx ~mode:timing_mode ~detect:false
            ~source:timing_workload input
        with
        | Ok r -> r
        | Error e -> failwith (Printf.sprintf "record swaptions: %s" e)
      in
      let recorded =
        match Arde.Recorded.of_string recording.Driver.rec_trace with
        | Ok r -> r
        | Error e -> failwith (Printf.sprintf "load swaptions: %s" e)
      in
      let pctx =
        Driver.ctx ~options:(Options.with_analysis Options.Predict options) ()
      in
      let predict_s, _, _ =
        Timing.timed ~repeats (fun () ->
            Arde.detect ~ctx:pctx (Arde.Input.Recorded_trace recorded))
      in
      {
        t_workload = timing_workload;
        t_mode = Config.mode_name timing_mode;
        t_sweep_execs = List.length sweep.Driver.runs;
        t_sweep_s = sweep_s;
        t_predict_s = predict_s;
        t_ratio = (if sweep_s > 0. then predict_s /. sweep_s else 0.);
      }

let summarize rows =
  let racy = List.filter (fun r -> r.p_racy) rows in
  let sum f = List.fold_left (fun a r -> a + f r) 0 racy in
  let se = sum (fun r -> r.p_sweep_execs) in
  let sc = sum (fun r -> r.p_sweep_contexts) in
  let pe = sum (fun r -> r.p_predict_execs) in
  let pc = sum (fun r -> r.p_predict_contexts) in
  let per e c = if c = 0 then 0. else float_of_int e /. float_of_int c in
  let s = per se sc and p = per pe pc in
  {
    s_sweep_execs = se;
    s_sweep_contexts = sc;
    s_predict_execs = pe;
    s_predict_contexts = pc;
    s_sweep_execs_per_race = s;
    s_predict_execs_per_race = p;
    s_reduction = (if p > 0. then s /. p else 0.);
  }

(* One case per racy family that manifests within the 16-seed budget
   (racy_rare_path's x-race never does, so the sweep side would have
   nothing extra to cover), plus repeats at other thread counts for the
   families where the schedule space grows with threads. *)
let default_racy =
  [
    "racy_counter/2";
    "racy_counter/16";
    "racy_flag_no_loop/2";
    "racy_mixed_locks/4";
    "racy_lock_ordered_w/2";
    "racy_lock_ordered_r/2";
    "racy_read_write/8";
    "racy_adhoc_broken/2";
    "racy_after_join_wrong/2";
    "racy_barrier_missing/4";
  ]

(* Library sync plus the ad-hoc constructs the spin instrumentation
   vouches for — the rows where a predicted race would be a predicted
   false positive. *)
let default_race_free =
  [
    "lock_counter/4";
    "cv_handoff/2";
    "barrier_phases/4";
    "lock_flag_spin/2";
    "guarded_queue/3";
    "double_checked_init/4";
  ]

let modes = Config.all_table1_modes

let run ?(repeats = 2) ?(racy = default_racy) ?(race_free = default_race_free)
    ?(fuel = 400_000) ?(parsec_fuel = 150_000)
    ?(seeds = List.init 16 (fun i -> i + 1)) () =
  let case name =
    match Arde_workloads.Racey.find name with
    | Some c -> c
    | None -> failwith (Printf.sprintf "bench predict: no case %s" name)
  in
  let rows =
    List.concat_map
      (fun name ->
        let c = case name in
        List.map (fun mode -> bench_case ~fuel ~seeds c mode) modes)
      (racy @ race_free)
  in
  let timing = time_parsec ~repeats ~fuel:parsec_fuel ~seeds in
  { rows; timing; summary = summarize rows }

let to_json t =
  J.Obj
    [
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("workload", J.String r.p_workload);
                   ("mode", J.String r.p_mode);
                   ("racy", J.Bool r.p_racy);
                   ("sweep_execs", J.Int r.p_sweep_execs);
                   ("sweep_contexts", J.Int r.p_sweep_contexts);
                   ("sweep_s", J.Float r.p_sweep_s);
                   ("predict_execs", J.Int r.p_predict_execs);
                   ("predict_contexts", J.Int r.p_predict_contexts);
                   ("predicted_new", J.Int r.p_predicted_new);
                   ("predicted_tagged", J.Int r.p_predicted_tagged);
                   ("predicted_fp", J.Int r.p_predicted_fp);
                   ("predict_s", J.Float r.p_predict_s);
                   ("missed", J.Int r.p_missed);
                 ])
             t.rows) );
      ( "timing",
        J.Obj
          [
            ("workload", J.String t.timing.t_workload);
            ("mode", J.String t.timing.t_mode);
            ("sweep_execs", J.Int t.timing.t_sweep_execs);
            ("sweep_s", J.Float t.timing.t_sweep_s);
            ("predict_s", J.Float t.timing.t_predict_s);
            ("ratio", J.Float t.timing.t_ratio);
          ] );
      ( "summary",
        J.Obj
          [
            ("sweep_execs", J.Int t.summary.s_sweep_execs);
            ("sweep_contexts", J.Int t.summary.s_sweep_contexts);
            ("predict_execs", J.Int t.summary.s_predict_execs);
            ("predict_contexts", J.Int t.summary.s_predict_contexts);
            ("sweep_execs_per_race", J.Float t.summary.s_sweep_execs_per_race);
            ( "predict_execs_per_race",
              J.Float t.summary.s_predict_execs_per_race );
            ("reduction", J.Float t.summary.s_reduction);
          ] );
    ]

let render t =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "%-24s %-16s %4s %8s %8s %8s %6s %4s %6s\n" "workload"
       "mode" "racy" "sweep16" "predict" "pred(+)" "tagged" "fp" "missed");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-24s %-16s %4s %8d %8d %8d %6d %4d %6d\n"
           r.p_workload r.p_mode
           (if r.p_racy then "yes" else "no")
           r.p_sweep_contexts r.p_predict_contexts r.p_predicted_new
           r.p_predicted_tagged r.p_predicted_fp r.p_missed))
    t.rows;
  Buffer.add_string b
    (Printf.sprintf
       "\n%s under %s: sweep %d seeds %.3fs, predict-from-trace %.3fs \
        (%.3fx)\n"
       t.timing.t_workload t.timing.t_mode t.timing.t_sweep_execs
       t.timing.t_sweep_s t.timing.t_predict_s t.timing.t_ratio);
  Buffer.add_string b
    (Printf.sprintf
       "racy rows: %d execs / %d contexts swept (%.2f per race) vs %d / %d \
        predicted (%.2f per race): %.2fx fewer executions per race\n"
       t.summary.s_sweep_execs t.summary.s_sweep_contexts
       t.summary.s_sweep_execs_per_race t.summary.s_predict_execs
       t.summary.s_predict_contexts t.summary.s_predict_execs_per_race
       t.summary.s_reduction);
  Buffer.contents b

let max_predict_ratio = 0.25
let min_reduction = 4.0

let gate t =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun r ->
      if r.p_racy && r.p_missed > 0 then
        fail "%s under %s: %d sweep context(s) not covered by the predict run"
          r.p_workload r.p_mode r.p_missed;
      if r.p_predicted_fp > 0 then
        fail
          "%s under %s: %d predicted false positive(s) (outside both the \
           sweep's findings and ground truth)"
          r.p_workload r.p_mode r.p_predicted_fp)
    t.rows;
  if t.timing.t_ratio > max_predict_ratio then
    fail
      "%s under %s: predict-from-trace at %.3fx of the sweep exceeds the \
       %.2fx gate"
      t.timing.t_workload t.timing.t_mode t.timing.t_ratio max_predict_ratio;
  if t.summary.s_reduction < min_reduction then
    fail "executions-per-race reduction %.2fx is below the %.1fx gate"
      t.summary.s_reduction min_reduction;
  List.rev !failures
