(* Differential machine benchmark: execute each workload × Table-1 mode
   end-to-end on the compiled {!Machine} and on the frozen {!Machine_ref},
   timing steps/sec and GC-allocated words per step in quiet mode (the
   default discarding observer — the regime detectors-off replay runs in),
   and events/sec with a counting observer attached (the regime detection
   runs in).  Both machines interpret the same compiled-once program under
   the same seed, so the ratios compare interpreter cost alone.

   Every row also spot-checks trace identity — hash and length of the full
   event stream must agree between the two machines — and a straight-line
   probe asserts the steady-state step loop of the optimized machine
   allocates nothing (minor-words delta per step ≈ 0).

   This feeds BENCH_machine.json (the wire form CI archives) and the CI
   smoke gate: the optimized machine must not fall below the reference's
   step throughput on streamcluster under nolib+spin(7), the
   configuration the paper's overhead figure centers on. *)

module Config = Arde.Config
module Machine = Arde.Machine
module Machine_ref = Arde.Machine_ref
module Trace = Arde.Trace
module J = Arde.Json

type side = {
  steps_per_s : float;
  words_per_step : float; (* GC-allocated words per machine step, quiet *)
  events_per_s : float; (* with a counting observer attached *)
}

type row = {
  m_workload : string;
  m_mode : string;
  m_steps : int; (* machine steps per run (deterministic) *)
  m_events : int; (* events observed per run *)
  m_ref : side;
  m_opt : side;
  m_speedup : float; (* opt / ref quiet steps per second *)
  m_alloc_ratio : float; (* opt / ref words per step *)
  m_traces_equal : bool; (* same event-stream hash and length *)
}

type probe = {
  p_steps : int;
  p_words_per_step : float;
  p_pass : bool;
}

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Time [repeats] full runs after one discarded warm-up; medians.  The
   run is deterministic, so steps/events are read off any repetition. *)
let timed ~repeats run =
  let times = ref [] and allocs = ref [] and last = ref None in
  for rep = 0 to repeats do
    let a0 = alloc_words () in
    let t0 = Unix.gettimeofday () in
    let r = run () in
    let t = Unix.gettimeofday () -. t0 in
    if rep > 0 then begin
      times := t :: !times;
      allocs := (alloc_words () -. a0) :: !allocs
    end;
    last := Some r
  done;
  (median !times, median !allocs, Option.get !last)

let bench_one ?(repeats = 3) info program mode ~fuel ~seed =
  (* the mode's program form and instrumentation, from the driver's own
     static half *)
  let p =
    Arde.Analysis_cache.prepare ~style:info.Arde_workloads.Parsec.nolib_style
      ~count_callees:true mode program
  in
  let program = p.Arde.Analysis_cache.p_program in
  let instrument = p.Arde.Analysis_cache.p_instrument in
  let copt = Machine.compile program in
  let cref = Machine_ref.compile program in
  let cfg observer = { Machine.default_config with Machine.seed; fuel; instrument; observer } in
  (* [cfg] built from [default_config] keeps the default observer
     physically intact, which is what arms the optimized machine's quiet
     fast path. *)
  let quiet_cfg = { Machine.default_config with Machine.seed; fuel; instrument } in
  let side runf compiled =
    let tq, aq, res = timed ~repeats (fun () -> runf quiet_cfg compiled) in
    let steps = res.Machine.steps in
    let count = ref 0 in
    let te, _, _ =
      timed ~repeats (fun () ->
          count := 0;
          runf (cfg (fun _ -> incr count)) compiled)
    in
    ( {
        steps_per_s = (if tq > 0. then float_of_int steps /. tq else 0.);
        words_per_step = aq /. float_of_int (max 1 steps);
        events_per_s =
          (if te > 0. then float_of_int !count /. te else 0.);
      },
      steps,
      !count )
  in
  let opt, steps, events = side Machine.run copt in
  let ref_, ref_steps, ref_events = side Machine_ref.run cref in
  (* trace-identity spot check on this exact configuration *)
  let traces_equal =
    let t1 = Trace.create () and t2 = Trace.create () in
    ignore (Machine.run (cfg (Trace.observer t1)) copt);
    ignore (Machine_ref.run (cfg (Trace.observer t2)) cref);
    Trace.hash t1 = Trace.hash t2
    && Trace.length t1 = Trace.length t2
    && steps = ref_steps && events = ref_events
  in
  {
    m_workload = info.Arde_workloads.Parsec.pname;
    m_mode = Config.mode_name mode;
    m_steps = steps;
    m_events = events;
    m_ref = ref_;
    m_opt = opt;
    m_speedup =
      (if ref_.steps_per_s > 0. then opt.steps_per_s /. ref_.steps_per_s
       else 0.);
    m_alloc_ratio =
      (if ref_.words_per_step > 0. then opt.words_per_step /. ref_.words_per_step
       else 0.);
    m_traces_equal = traces_equal;
  }

(* A single-threaded register-arithmetic + global load/store loop under
   [Round_robin]: no PRNG draws, no blocking, no events retained — the
   steady-state straight-line path.  In quiet mode the optimized machine
   must execute it without per-step heap allocation; the measured
   minor-words delta amortizes the fixed setup/teardown cost (thread and
   sync tables, the final-memory rebuild) over ~600k steps, so anything
   per-step would dominate immediately. *)
let straightline_probe () =
  let open Arde.Builder in
  let body =
    [
      load "v" (g "cell");
      addi "v" (r "v") (imm 1);
      store (g "cell") (r "v");
    ]
  in
  let p =
    program
      ~globals:[ global "cell" () ]
      ~entry:"main"
      [
        func "main"
          ((blk "init" [ mov "i" (imm 0) ] (goto "hot_head")
           :: counted_loop ~tag:"hot" ~counter:"i" ~limit:(imm 100_000) ~body
                ~next:"out")
          @ [ blk "out" [] exit_t ]);
      ]
  in
  let compiled = Machine.compile p in
  let cfg =
    {
      Machine.default_config with
      Machine.policy = Arde.Sched.Round_robin 1_000_000;
      fuel = 5_000_000;
    }
  in
  ignore (Machine.run cfg compiled);
  (* warm-up *)
  let a0 = alloc_words () in
  let res = Machine.run cfg compiled in
  let words = alloc_words () -. a0 in
  let steps = max 1 res.Machine.steps in
  let wps = words /. float_of_int steps in
  {
    p_steps = res.Machine.steps;
    p_words_per_step = wps;
    p_pass = (res.Machine.outcome = Machine.Finished && wps < 0.05);
  }

let default_workloads = [ "streamcluster"; "x264"; "blackscholes" ]

let run ?(repeats = 3) ?(workloads = default_workloads) ?(fuel = 200_000)
    ?(seed = 1) () =
  let rows =
    List.concat_map
      (fun name ->
        match Arde_workloads.Parsec.find name with
        | None -> []
        | Some (info, program) ->
            List.map
              (fun mode -> bench_one ~repeats info program mode ~fuel ~seed)
              Config.all_table1_modes)
      workloads
  in
  (rows, straightline_probe ())

let side_to_json s =
  J.Obj
    [
      ("steps_per_s", J.Float s.steps_per_s);
      ("words_per_step", J.Float s.words_per_step);
      ("events_per_s", J.Float s.events_per_s);
    ]

let to_json (rows, probe) =
  J.Obj
    [
      ("host_cores", J.Int (Domain.recommended_domain_count ()));
      ( "straightline_probe",
        J.Obj
          [
            ("steps", J.Int probe.p_steps);
            ("words_per_step", J.Float probe.p_words_per_step);
            ("zero_alloc", J.Bool probe.p_pass);
          ] );
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("workload", J.String r.m_workload);
                   ("mode", J.String r.m_mode);
                   ("steps", J.Int r.m_steps);
                   ("events", J.Int r.m_events);
                   ("ref", side_to_json r.m_ref);
                   ("opt", side_to_json r.m_opt);
                   ("speedup", J.Float r.m_speedup);
                   ("alloc_ratio", J.Float r.m_alloc_ratio);
                   ("traces_equal", J.Bool r.m_traces_equal);
                 ])
             rows) );
    ]

let render (rows, probe) =
  let t =
    Arde_util.Table.create
      [
        "Workload"; "Mode"; "Steps"; "ref st/s"; "opt st/s"; "speedup";
        "ref w/st"; "opt w/st"; "opt ev/s"; "traces";
      ]
  in
  List.iter
    (fun r ->
      Arde_util.Table.add_row t
        [
          r.m_workload;
          r.m_mode;
          string_of_int r.m_steps;
          Printf.sprintf "%.3g" r.m_ref.steps_per_s;
          Printf.sprintf "%.3g" r.m_opt.steps_per_s;
          Printf.sprintf "%.2fx" r.m_speedup;
          Printf.sprintf "%.2f" r.m_ref.words_per_step;
          Printf.sprintf "%.2f" r.m_opt.words_per_step;
          Printf.sprintf "%.3g" r.m_opt.events_per_s;
          (if r.m_traces_equal then "equal" else "DIFFER");
        ])
    rows;
  Arde_util.Table.render t
  ^ Printf.sprintf
      "straight-line probe: %d steps, %.4f words/step (%s)\n"
      probe.p_steps probe.p_words_per_step
      (if probe.p_pass then "zero-alloc OK" else "ALLOCATES")

(* The CI gate: the optimized machine must at least match the reference on
   the paper's central configuration, every trace spot-check must agree,
   and the straight-line path must stay allocation-free. *)
let gate (rows, probe) =
  let failures = ref [] in
  (match
     List.find_opt
       (fun r ->
         (r.m_workload, r.m_mode)
         = ("streamcluster", Config.mode_name (Config.Nolib_spin 7)))
       rows
   with
  | None -> failures := "no streamcluster nolib+spin(7) row" :: !failures
  | Some r ->
      if r.m_speedup < 1.0 then
        failures :=
          Printf.sprintf
            "streamcluster nolib+spin(7): optimized machine at %.2fx of \
             reference step throughput (< 1.0x)"
            r.m_speedup
          :: !failures);
  List.iter
    (fun r ->
      if not r.m_traces_equal then
        failures :=
          Printf.sprintf "%s under %s: event traces differ between machines"
            r.m_workload r.m_mode
          :: !failures)
    rows;
  if not probe.p_pass then
    failures :=
      Printf.sprintf
        "straight-line probe allocates %.4f words/step (want ~0)"
        probe.p_words_per_step
      :: !failures;
  List.rev !failures
