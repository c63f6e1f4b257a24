(* Differential engine benchmark: record one event trace per workload ×
   mode, then replay the identical trace through the optimized {!Engine}
   and the frozen {!Engine_ref}, timing events/sec and GC-allocated words
   per event for each.  Replaying a recorded trace isolates detector cost
   from machine cost — both engines see exactly the same events, so the
   ratios are pure engine comparisons.

   This feeds BENCH_engine.json (the wire form CI archives) and the CI
   smoke gate: the optimized engine must not fall below the reference's
   throughput on streamcluster under nolib+spin(7), the configuration the
   paper's overhead figure centers on. *)

open Arde_tir.Types
module Config = Arde.Config
module Event = Arde.Event
module Machine = Arde.Machine
module Trace = Arde.Trace
module J = Arde.Json

type side = {
  events_per_s : float;
  words_per_event : float;
}

type row = {
  b_workload : string;
  b_mode : string;
  b_events : int;
  b_ref : side;
  b_opt : side;
  b_speedup : float; (* opt / ref events per second *)
  b_alloc_ratio : float; (* opt / ref words per event *)
  b_reports_equal : bool; (* byte-identical report JSON on this trace *)
}

(* One recorded execution of [program] under [mode]'s program form, with
   whatever instrumentation the mode wants active in the machine.  The
   static half comes from the driver's own {!Arde.Analysis_cache}. *)
let record_trace info program mode ~fuel ~seed =
  let p =
    Arde.Analysis_cache.prepare ~style:info.Arde_workloads.Parsec.nolib_style
      ~count_callees:true mode program
  in
  let instrument = p.Arde.Analysis_cache.p_instrument in
  let trace = Trace.create () in
  let cfg =
    {
      Machine.default_config with
      Machine.seed;
      fuel;
      instrument;
      observer = Trace.observer trace;
    }
  in
  ignore (Machine.run cfg p.Arde.Analysis_cache.p_compiled);
  (Trace.events trace, instrument, p.Arde.Analysis_cache.p_cv_mutexes)

(* Replay [events] through fresh engines built by [make] outside the
   timed window, [repeats] times plus a discarded warm-up; median time
   and allocation per repetition.
   Each repetition streams the trace [inner] times through the same
   engine, so short workload traces still yield a steady-state
   measurement: the first pass populates the shadow state, the rest
   exercise the hot path on warm cells — the regime the per-event cost
   claim is about. *)
let replay ~make ~repeats ~inner events =
  let events = Array.of_list events in
  let observer = ref ignore in
  let time_s, words, () =
    Timing.timed ~repeats
      ~setup:(fun () -> observer := make ())
      (fun () ->
        let observe = !observer in
        for _ = 1 to inner do
          for i = 0 to Array.length events - 1 do
            observe (Array.unsafe_get events i)
          done
        done)
  in
  (time_s, words)

let side_of ~n_events ~inner (time_s, alloc) =
  let n = float_of_int (max 1 (n_events * inner)) in
  {
    events_per_s = (if time_s > 0. then n /. time_s else 0.);
    words_per_event = alloc /. n;
  }

(* One row: [events] replayed through both engines, built with the
   same capacity and condition-variable mutexes. *)
let bench_trace ~repeats ~workload ~mode ?threads ?cv_mutexes ~instrument
    events =
  let n_events = List.length events in
  let detector_cfg = Config.make mode in
  let opt () =
    Arde.Engine.create ?threads ?cv_mutexes detector_cfg ~instrument
  in
  let ref_ () =
    Arde.Engine_ref.create ?threads ?cv_mutexes detector_cfg ~instrument
  in
  (* enough passes that each timed repetition streams ~200k events *)
  let inner = max 1 (200_000 / max 1 n_events) in
  let side make = side_of ~n_events ~inner (replay ~make ~repeats ~inner events) in
  let opt_side = side (fun () -> Arde.Engine.observer (opt ())) in
  let ref_side = side (fun () -> Arde.Engine_ref.observer (ref_ ())) in
  (* Differential spot check on this exact trace: reports and spin edges
     must agree byte for byte. *)
  let reports_equal =
    let e = opt () and r = ref_ () in
    List.iter (Arde.Engine.observer e) events;
    List.iter (Arde.Engine_ref.observer r) events;
    J.to_string (Arde.Report.to_json (Arde.Engine.report e))
    = J.to_string (Arde.Report.to_json (Arde.Engine_ref.report r))
    && Arde.Engine.n_spin_edges e = Arde.Engine_ref.n_spin_edges r
  in
  {
    b_workload = workload;
    b_mode = Config.mode_name mode;
    b_events = n_events;
    b_ref = ref_side;
    b_opt = opt_side;
    b_speedup =
      (if ref_side.events_per_s > 0. then
         opt_side.events_per_s /. ref_side.events_per_s
       else 0.);
    b_alloc_ratio =
      (if ref_side.words_per_event > 0. then
         opt_side.words_per_event /. ref_side.words_per_event
       else 0.);
    b_reports_equal = reports_equal;
  }

let bench_one ?(repeats = 3) info program mode ~fuel ~seed =
  let events, instrument, cv_mutexes = record_trace info program mode ~fuel ~seed in
  bench_trace ~repeats ~workload:info.Arde_workloads.Parsec.pname ~mode
    ~cv_mutexes ~instrument events

let default_workloads = [ "streamcluster"; "x264"; "blackscholes" ]

(* ------------------------------------------------------------------ *)
(* Synthetic high-thread-count workloads.  The machine caps executions
   at [max_threads], so the 128/512-thread rows hand-build event streams
   instead — the documented escape hatch of the trace format — and run
   the engines with a raised [~threads] capacity.  Two shapes, matching
   where the fine-grained-lens cost model says joins dominate:

   - barrier-heavy: every round each thread writes its slot, crosses a
     barrier (an O(threads) accumulated clock every generation), reads a
     neighbour's slot, and crosses a second barrier so rounds stay
     race-free.  Both engines pay the full-width join on every pass.
   - join-heavy: after one barrier widens every clock to full length, a
     writer republishes an atomic flag a handful of times and every
     thread re-acquires it in a tight loop — the ad-hoc-synchronization
     shape, where the same release snapshot is joined thousands of
     times.  The sparse-epoch clock turns the repeats into O(1) skips;
     the reference walks (and reallocates) all components every time.

   Each stream ends with one deliberate unsynchronized write pair so the
   differential report check compares real reports, not empty ones. *)

let syn_loc blk k = { lfunc = "synthetic"; lblk = blk; lidx = k }

let syn_prologue ~threads acc =
  acc := Event.Thread_start { tid = 0 } :: !acc;
  for tid = 1 to threads - 1 do
    acc := Event.Spawn_ev { parent = 0; child = tid; loc = syn_loc "spawn" tid } :: !acc;
    acc := Event.Thread_start { tid } :: !acc
  done

let syn_barrier ~threads ~generation acc =
  let loc = syn_loc "barrier" generation in
  for tid = 0 to threads - 1 do
    acc := Event.Barrier_arrive { tid; base = "bar"; idx = 0; generation; loc } :: !acc
  done;
  for tid = 0 to threads - 1 do
    acc := Event.Barrier_pass { tid; base = "bar"; idx = 0; generation; loc } :: !acc
  done

let syn_epilogue ~threads acc =
  let wloc = syn_loc "racy" 0 in
  acc := Event.Write { tid = 0; base = "racy"; base_id = 1; idx = 0; value = 1;
                       loc = wloc; kind = Event.Plain } :: !acc;
  acc := Event.Write { tid = 1; base = "racy"; base_id = 1; idx = 0; value = 2;
                       loc = wloc; kind = Event.Plain } :: !acc;
  for tid = 1 to threads - 1 do
    acc := Event.Thread_exit { tid } :: !acc;
    acc := Event.Join_return { tid = 0; target = tid; loc = syn_loc "join" tid } :: !acc
  done;
  acc := Event.Thread_exit { tid = 0 } :: !acc

let synthetic_barrier ~threads ~rounds =
  let acc = ref [] in
  syn_prologue ~threads acc;
  let gen = ref 0 in
  for round = 1 to rounds do
    let wloc = syn_loc "w" round and rloc = syn_loc "r" round in
    for tid = 0 to threads - 1 do
      acc := Event.Write { tid; base = "data"; base_id = 0; idx = tid;
                           value = round; loc = wloc; kind = Event.Plain } :: !acc
    done;
    syn_barrier ~threads ~generation:!gen acc;
    incr gen;
    for tid = 0 to threads - 1 do
      acc := Event.Read { tid; base = "data"; base_id = 0;
                          idx = (tid + 1) mod threads; value = round;
                          loc = rloc; kind = Event.Plain; spin = [] } :: !acc
    done;
    syn_barrier ~threads ~generation:!gen acc;
    incr gen
  done;
  syn_epilogue ~threads acc;
  List.rev !acc

let synthetic_join ~threads ~writes ~reads =
  let acc = ref [] in
  syn_prologue ~threads acc;
  (* one full-width barrier so every clock has [threads] components *)
  syn_barrier ~threads ~generation:0 acc;
  let floc = syn_loc "flag" 0 in
  for round = 1 to writes do
    acc := Event.Write { tid = 0; base = "flag"; base_id = 2; idx = 0;
                         value = round; loc = floc; kind = Event.Atomic } :: !acc;
    let wloc = syn_loc "own" round in
    for tid = 0 to threads - 1 do
      acc := Event.Write { tid; base = "data"; base_id = 0; idx = tid;
                           value = round; loc = wloc; kind = Event.Plain } :: !acc
    done;
    for _rep = 1 to reads do
      for tid = 0 to threads - 1 do
        acc := Event.Read { tid; base = "flag"; base_id = 2; idx = 0;
                            value = round; loc = floc; kind = Event.Atomic;
                            spin = [] } :: !acc
      done
    done
  done;
  syn_epilogue ~threads acc;
  List.rev !acc

type synthetic = {
  s_name : string;
  s_mode : Config.mode;
  s_threads : int;
  s_events : Event.t list Lazy.t;
}

let synthetic_specs =
  [
    { s_name = "barrier-128"; s_mode = Config.Helgrind_lib; s_threads = 128;
      s_events = lazy (synthetic_barrier ~threads:128 ~rounds:130) };
    { s_name = "barrier-512"; s_mode = Config.Helgrind_lib; s_threads = 512;
      s_events = lazy (synthetic_barrier ~threads:512 ~rounds:33) };
    { s_name = "join-128"; s_mode = Config.Helgrind_spin 7; s_threads = 128;
      s_events = lazy (synthetic_join ~threads:128 ~writes:8 ~reads:100) };
    { s_name = "join-512"; s_mode = Config.Helgrind_spin 7; s_threads = 512;
      s_events = lazy (synthetic_join ~threads:512 ~writes:4 ~reads:50) };
  ]

let bench_synthetic ?(repeats = 3) spec =
  bench_trace ~repeats ~workload:spec.s_name ~mode:spec.s_mode
    ~threads:spec.s_threads ~instrument:None (Lazy.force spec.s_events)

let run ?(repeats = 3) ?(workloads = default_workloads) ?(fuel = 200_000)
    ?(seed = 1) ?(synthetic = true) () =
  List.concat_map
    (fun name ->
      match Arde_workloads.Parsec.find name with
      | None -> []
      | Some (info, program) ->
          List.map
            (fun mode -> bench_one ~repeats info program mode ~fuel ~seed)
            Config.all_table1_modes)
    workloads
  @ (if synthetic then List.map (bench_synthetic ~repeats) synthetic_specs
     else [])

let side_to_json s =
  J.Obj
    [
      ("events_per_s", J.Float s.events_per_s);
      ("words_per_event", J.Float s.words_per_event);
    ]

let to_json rows =
  J.Obj
    [
      ("host_cores", J.Int (Domain.recommended_domain_count ()));
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("workload", J.String r.b_workload);
                   ("mode", J.String r.b_mode);
                   ("events", J.Int r.b_events);
                   ("ref", side_to_json r.b_ref);
                   ("opt", side_to_json r.b_opt);
                   ("speedup", J.Float r.b_speedup);
                   ("alloc_ratio", J.Float r.b_alloc_ratio);
                   ("reports_equal", J.Bool r.b_reports_equal);
                 ])
             rows) );
    ]

let render rows =
  let t =
    Arde_util.Table.create
      [
        "Workload"; "Mode"; "Events"; "ref ev/s"; "opt ev/s"; "speedup";
        "ref w/ev"; "opt w/ev"; "alloc ratio"; "reports";
      ]
  in
  List.iter
    (fun r ->
      Arde_util.Table.add_row t
        [
          r.b_workload;
          r.b_mode;
          string_of_int r.b_events;
          Printf.sprintf "%.3g" r.b_ref.events_per_s;
          Printf.sprintf "%.3g" r.b_opt.events_per_s;
          Printf.sprintf "%.2fx" r.b_speedup;
          Printf.sprintf "%.1f" r.b_ref.words_per_event;
          Printf.sprintf "%.1f" r.b_opt.words_per_event;
          Printf.sprintf "%.2fx" r.b_alloc_ratio;
          (if r.b_reports_equal then "equal" else "DIFFER");
        ])
    rows;
  Arde_util.Table.render t

(* The CI gate: the optimized engine must at least match the reference on
   the paper's central configuration and on every synthetic high-width
   row, must clear 2x on the 512-thread join-heavy row (the shape the
   sparse-epoch clock exists for), and the spot-check reports must all
   agree. *)
let gate rows =
  let key r = (r.b_workload, r.b_mode) in
  let central =
    List.find_opt
      (fun r -> key r = ("streamcluster", Config.mode_name (Config.Nolib_spin 7)))
      rows
  in
  let failures = ref [] in
  (match central with
  | None -> failures := "no streamcluster nolib+spin(7) row" :: !failures
  | Some r ->
      if r.b_speedup < 1.0 then
        failures :=
          Printf.sprintf
            "streamcluster nolib+spin(7): optimized engine at %.2fx of \
             reference throughput (< 1.0x)"
            r.b_speedup
          :: !failures);
  List.iter
    (fun spec ->
      match List.find_opt (fun r -> r.b_workload = spec.s_name) rows with
      | None ->
          failures :=
            Printf.sprintf "no %s synthetic row" spec.s_name :: !failures
      | Some r ->
          let floor = if spec.s_name = "join-512" then 2.0 else 1.0 in
          if r.b_speedup < floor then
            failures :=
              Printf.sprintf
                "%s: optimized engine at %.2fx of reference throughput \
                 (< %.1fx)"
                spec.s_name r.b_speedup floor
              :: !failures)
    synthetic_specs;
  List.iter
    (fun r ->
      if not r.b_reports_equal then
        failures :=
          Printf.sprintf "%s under %s: reports differ between engines"
            r.b_workload r.b_mode
          :: !failures)
    rows;
  List.rev !failures
