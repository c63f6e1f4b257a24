open Arde_tir.Types
module Machine = Arde_runtime.Machine
module Observer = Arde_runtime.Observer
module Codec = Arde_runtime.Trace_codec

type options = Options.t

(* ------------------------------------------------------------------ *)
(* Engine selection                                                   *)

(* The per-seed detector behind a closure record, so the pipeline can run
   with either the optimized {!Engine} (default) or the frozen
   {!Engine_ref} oracle — the differential suite drives the FULL pipeline
   (chaos injection included) through both and asserts byte-identical
   results. *)
type engine = {
  e_observer : Observer.t;
  e_report : unit -> Report.t;
  e_spin_edges : unit -> int;
  e_memory_words : unit -> int;
}

type engine_factory =
  Config.t ->
  cv_mutexes:string list ->
  inferred_locks:string list ->
  instrument:Arde_cfg.Instrument.t option ->
  engine

let opt_engine : engine_factory =
 fun cfg ~cv_mutexes ~inferred_locks ~instrument ->
  let e = Engine.create ~cv_mutexes ~inferred_locks cfg ~instrument in
  {
    e_observer = Engine.observer e;
    e_report = (fun () -> Engine.report e);
    e_spin_edges = (fun () -> Engine.n_spin_edges e);
    e_memory_words = (fun () -> Engine.memory_words e);
  }

let ref_engine : engine_factory =
 fun cfg ~cv_mutexes ~inferred_locks ~instrument ->
  let e = Engine_ref.create ~cv_mutexes ~inferred_locks cfg ~instrument in
  {
    e_observer = Engine_ref.observer e;
    e_report = (fun () -> Engine_ref.report e);
    e_spin_edges = (fun () -> Engine_ref.n_spin_edges e);
    e_memory_words = (fun () -> Engine_ref.memory_words e);
  }

(* ------------------------------------------------------------------ *)
(* Run context                                                        *)

type ctx = {
  c_options : Options.t;
  c_engine : engine_factory;
  c_pool : Arde_util.Domain_pool.pool option;
  c_should_stop : unit -> bool;
  c_program_digest : string option;
}

let never_stop () = false

let ctx ?(options = Options.default) ?(engine = opt_engine) ?pool
    ?(should_stop = never_stop) ?program_digest () =
  {
    c_options = options;
    c_engine = engine;
    c_pool = pool;
    c_should_stop = should_stop;
    c_program_digest = program_digest;
  }

let default_ctx = ctx ()
let default_mode = Config.Helgrind_spin 7

type seed_outcome =
  | Completed of Machine.outcome
  | Crashed of loc option * string
  | Cancelled

type seed_run = {
  sr_seed : int;
  sr_outcome : seed_outcome;
  sr_steps : int;
  sr_contexts : int;
  sr_capped : bool;
  sr_spin_edges : int;
  sr_memory_words : int;
  sr_check_failures : (loc * string) list;
  sr_cv_diagnostics : Cv_checker.diagnostic list;
}

type health_verdict = Healthy | Degraded | Failed

type health = {
  h_seeds : int;
  h_finished : int;
  h_deadlocked : int;
  h_livelocked : int;
  h_fuel_exhausted : int;
  h_faulted : int;
  h_crashed : int;
  h_cancelled : int;
  h_verdict : health_verdict;
  h_notes : string list;
}

type prediction = {
  pr_sections : int;
  pr_events : int;
  pr_candidates : int;
  pr_predicted : int;
  pr_new_contexts : int;
  pr_closure_steps : int;
  pr_budget_hits : int;
  pr_notes : string list;
}

type result = {
  mode : Config.mode;
  merged : Report.t;
  runs : seed_run list;
  n_spin_loops : int;
  static_cv_hazards : Cv_checker.diagnostic list;
      (* spurious-wakeup-unsafe waits, found statically *)
  health : health;
  prediction : prediction option;
      (* present when the run's analysis predicted from recordings *)
}

(* ------------------------------------------------------------------ *)
(* Run health                                                         *)

let health_of ~notes runs =
  let finished = ref 0
  and deadlocked = ref 0
  and livelocked = ref 0
  and fuel = ref 0
  and faulted = ref 0
  and crashed = ref 0
  and cancelled = ref 0
  and notes = ref (List.rev notes) in
  List.iter
    (fun sr ->
      match sr.sr_outcome with
      | Completed Machine.Finished -> incr finished
      | Completed (Machine.Deadlock _) -> incr deadlocked
      | Completed (Machine.Livelock _) -> incr livelocked
      | Completed Machine.Fuel_exhausted -> incr fuel
      | Completed (Machine.Fault _) -> incr faulted
      | Crashed (_, msg) ->
          incr crashed;
          notes := Printf.sprintf "seed %d crashed: %s" sr.sr_seed msg :: !notes
      | Cancelled -> incr cancelled)
    runs;
  let n = List.length runs in
  let verdict =
    (* cancellation is voluntary (a deadline or drain), so it degrades
       the run rather than failing it — the completed seeds' findings
       are still real *)
    if n = 0 || !crashed = n then Failed
    else if !finished = n then Healthy
    else Degraded
  in
  {
    h_seeds = n;
    h_finished = !finished;
    h_deadlocked = !deadlocked;
    h_livelocked = !livelocked;
    h_fuel_exhausted = !fuel;
    h_faulted = !faulted;
    h_crashed = !crashed;
    h_cancelled = !cancelled;
    h_verdict = verdict;
    h_notes = List.rev !notes;
  }

let failed_result mode msg =
  {
    mode;
    merged = Report.create ~cap:max_int ();
    runs = [];
    n_spin_loops = 0;
    static_cv_hazards = [];
    health = health_of ~notes:[ "pipeline: " ^ msg ] [];
    prediction = None;
  }

let describe_exn = function
  | Machine.Fault_exn (l, msg) -> (Some l, msg)
  | Machine.Internal_violation msg -> (None, msg)
  | Invalid_argument msg | Failure msg -> (None, msg)
  | e -> (None, Printexc.to_string e)

(* Everything that happens before the per-seed fan-out: lowering, the
   instrumentation phase, lock inference, compilation.  The whole bundle
   goes through {!Analysis_cache.prepare}, so a harness that runs the
   same program many times (suite, chaos storm, bench sweep, a serve
   daemon's repeat submissions) pays for the static analysis once and a
   warm run skips straight to per-seed execution.  A crash here means no
   seed can run at all — the caller turns it into a [Failed] health
   record rather than letting the exception escape [Arde.detect]. *)
let prepare ?digest (options : Options.t) mode program =
  Analysis_cache.prepare ?digest ~style:options.Options.lower_style
    ~count_callees:options.Options.count_callee_blocks mode program

(* A seed the run never started: the cancellation hook (a server
   deadline, a drain) fired before this seed's slot came up.  No machine
   ran and no engine was built, so every counter is zero and there is no
   partial report to salvage — unlike [Crashed], nothing went wrong. *)
let cancelled_run seed =
  ( {
      sr_seed = seed;
      sr_outcome = Cancelled;
      sr_steps = 0;
      sr_contexts = 0;
      sr_capped = false;
      sr_spin_edges = 0;
      sr_memory_words = 0;
      sr_check_failures = [];
      sr_cv_diagnostics = [];
    },
    None )

(* The deterministic merge stage.  Per-seed reports are folded in seed
   order, whatever interleaving the pool produced, so [jobs = 1] and
   [jobs = N] yield byte-identical merged reports: {!Report.merge_into}
   keeps the first representative per context, and "first" is defined by
   this fold. *)
let merge_reports per_seed =
  let merged = Report.create ~cap:max_int () in
  List.iter
    (fun (_, rep) ->
      Option.iter (fun r -> try Report.merge_into merged r with _ -> ()) rep)
    per_seed;
  merged

(* The clamp is recorded in every affected run's health notes, but the
   stderr notice prints once per distinct message per process — a suite
   sweep is hundreds of [run] calls and the spam would drown the table. *)
let clamp_announced : (string, unit) Hashtbl.t = Hashtbl.create 1

let announce_clamp note =
  if not (Hashtbl.mem clamp_announced note) then begin
    Hashtbl.replace clamp_announced note ();
    Printf.eprintf "arde: %s\n%!" note
  end

let clamp_notes options =
  match Options.jobs_clamp options with
  | None -> []
  | Some (requested, host) ->
      let note =
        Printf.sprintf "jobs: requested %d clamped to host core count %d"
          requested host
      in
      announce_clamp note;
      [ note ]

(* ------------------------------------------------------------------ *)
(* Trailer mapping: seed outcome ↔ the codec's machine-free mirror     *)

let codec_outcome = function
  | Completed Machine.Finished -> Codec.Finished
  | Completed (Machine.Deadlock tids) -> Codec.Deadlock tids
  | Completed Machine.Fuel_exhausted -> Codec.Fuel_exhausted
  | Completed (Machine.Livelock sites) ->
      Codec.Livelock
        (List.map
           (fun s ->
             {
               Codec.w_tid = s.Machine.sp_tid;
               w_loop = s.Machine.sp_loop;
               w_loc = s.Machine.sp_loc;
               w_bases = s.Machine.sp_bases;
             })
           sites)
  | Completed (Machine.Fault { ftid; floc; msg }) ->
      Codec.Fault { ftid; floc; msg }
  | Crashed (l, msg) -> Codec.Crashed (l, msg)
  | Cancelled -> Codec.Cancelled

let seed_outcome_of_codec = function
  | Codec.Finished -> Completed Machine.Finished
  | Codec.Deadlock tids -> Completed (Machine.Deadlock tids)
  | Codec.Fuel_exhausted -> Completed Machine.Fuel_exhausted
  | Codec.Livelock sites ->
      Completed
        (Machine.Livelock
           (List.map
              (fun w ->
                {
                  Machine.sp_tid = w.Codec.w_tid;
                  sp_loop = w.Codec.w_loop;
                  sp_loc = w.Codec.w_loc;
                  sp_bases = w.Codec.w_bases;
                })
              sites))
  | Codec.Fault { ftid; floc; msg } -> Completed (Machine.Fault { ftid; floc; msg })
  | Codec.Crashed (l, msg) -> Crashed (l, msg)
  | Codec.Cancelled -> Cancelled

let trailer_of_seed_run sr =
  {
    Codec.t_outcome = codec_outcome sr.sr_outcome;
    t_steps = sr.sr_steps;
    t_check_failures = sr.sr_check_failures;
  }

(* ------------------------------------------------------------------ *)
(* The per-seed runner                                                *)

(* Where one seed's event stream comes from: a live execution of the
   compiled program, or a recorded section streamed back through the
   codec.  Recording and replay only change the source; everything
   downstream of the stream is the same runner. *)
type source = Execute of int | Replay of Codec.section

(* The pure per-seed stage.  Runs one seed inside a sandbox and returns
   the seed's record, its private report and — when [record] — the
   sealed codec section.  No shared state is touched, which is what lets
   the driver run seeds on separate domains.

   Observers attach in one fixed order: the chaos injector (live runs
   only), then the recording sink, then the engine and the CV checker
   (when [detect]).  The sink sits {e between} injector and engine, so
   the recorded stream is exactly the stream the engine saw (an injector
   raising mid-run truncates both identically) — which is what makes
   replay reproduce even crashed seeds byte for byte.  A record-only seed
   builds no engine and no checker: the cheapest observing run there is.

   Machine faults surface as [Completed (Fault _)] (the machine catches
   those itself), while escaping exceptions — broken machine invariants,
   an observer blowing up, injected chaos, an undecodable recording —
   become a [Crashed] outcome carrying whatever partial report the engine
   had accumulated.  One sick seed never takes down the others. *)
let run_one (c : ctx) (options : Options.t) mode (p : Analysis_cache.prepared)
    ~detect ~record source =
  let seed, recorded_cancel =
    match source with
    | Execute seed -> (seed, false)
    | Replay sec ->
        let t = sec.Codec.s_trailer in
        (sec.Codec.s_seed, t.Codec.t_outcome = Codec.Cancelled)
  in
  (* Cooperative cancellation: the hook is consulted once per seed,
     before that seed's machine is built.  Seeds already executing run to
     completion (their findings are salvaged); seeds whose slot comes up
     after the hook fires become [Cancelled]. *)
  if c.c_should_stop () || recorded_cancel then
    ( cancelled_run seed,
      if record then Some (Codec.cancelled_section ~seed) else None )
  else begin
    let instrument = p.Analysis_cache.p_instrument in
    let sink = if record then Some (Codec.sink ()) else None in
    let detector =
      if detect then
        let cfg =
          Config.make ~sensitivity:options.Options.sensitivity
            ~cap:options.Options.cap mode
        in
        Some
          ( c.c_engine cfg ~cv_mutexes:p.Analysis_cache.p_cv_mutexes
              ~inferred_locks:p.Analysis_cache.p_inferred_locks ~instrument,
            Cv_checker.create () )
      else None
    in
    let observer =
      Observer.tee_all
        ((match (source, options.Options.inject) with
         | Execute _, Some f -> [ Observer.of_fn (f ~seed) ]
         | _ -> [])
        @ Option.to_list (Option.map Codec.sink_observer sink)
        @
        match detector with
        | Some (e, cv) -> [ e.e_observer; Cv_checker.observer cv ]
        | None -> [])
    in
    let outcome, steps, check_failures =
      try
        match source with
        | Execute _ ->
            let res =
              Machine.run
                {
                  Machine.policy = options.Options.policy;
                  seed;
                  fuel = options.Options.fuel;
                  instrument;
                  spurious_wakeups = options.Options.spurious_wakeups;
                  observer;
                }
                p.Analysis_cache.p_compiled
            in
            ( Completed res.Machine.outcome,
              res.Machine.steps,
              res.Machine.check_failures )
        | Replay sec -> (
            (* the machine-side half comes from the section trailer *)
            let t = sec.Codec.s_trailer in
            match Codec.decode_events sec (Observer.emit observer) with
            | Ok () ->
                ( seed_outcome_of_codec t.Codec.t_outcome,
                  t.Codec.t_steps,
                  t.Codec.t_check_failures )
            | Error e ->
                (* hash-valid but undecodable: the recording itself is sick *)
                (Crashed (None, "replay: " ^ Codec.error_to_string e), 0, []))
      with e ->
        let floc, msg = describe_exn e in
        (Crashed (floc, msg), 0, [])
    in
    (* Salvage what the engine saw, crash or not; warnings found on a
       trace prefix are still valid observations. *)
    let salvage f default =
      match detector with
      | Some d -> ( try f d with _ -> default)
      | None -> default
    in
    let rep = salvage (fun (e, _) -> Some (e.e_report ())) None in
    let sr =
      {
        sr_seed = seed;
        sr_outcome = outcome;
        sr_steps = steps;
        sr_contexts =
          (match rep with Some r -> Report.n_contexts r | None -> 0);
        sr_capped = (match rep with Some r -> Report.capped r | None -> false);
        sr_spin_edges = salvage (fun (e, _) -> e.e_spin_edges ()) 0;
        sr_memory_words = salvage (fun (e, _) -> e.e_memory_words ()) 0;
        sr_check_failures = check_failures;
        sr_cv_diagnostics = salvage (fun (_, cv) -> Cv_checker.finalize cv) [];
      }
    in
    ( (sr, rep),
      Option.map
        (fun s -> Codec.section_of_sink s ~seed (trailer_of_seed_run sr))
        sink )
  end

(* ------------------------------------------------------------------ *)
(* The pipeline, shared by run, replay, record and compare            *)

let fan_out (c : ctx) options body seeds =
  match c.c_pool with
  | Some p -> Arde_util.Domain_pool.map_pool p body seeds
  | None ->
      let jobs = Options.effective_jobs options ~n_seeds:(List.length seeds) in
      Arde_util.Domain_pool.map ~jobs body seeds

(* A record-only pass has no findings to report, so it skips the static
   hazard scan (a dominator pass per function) that a detecting result
   carries. *)
let finish_result mode (p : Analysis_cache.prepared) ~detect ~notes per_seed =
  let merged = merge_reports per_seed in
  let runs = List.map fst per_seed in
  let n_spin_loops =
    match p.Analysis_cache.p_instrument with
    | Some inst -> List.length (Arde_cfg.Instrument.spins inst)
    | None -> 0
  in
  let static_cv_hazards =
    if not detect then []
    else try Cv_checker.static_check p.Analysis_cache.p_program with _ -> []
  in
  {
    mode;
    merged;
    runs;
    n_spin_loops;
    static_cv_hazards;
    health = health_of ~notes runs;
    prediction = None;
  }

(* prepare → clamp notes → fan [run_one] out over [sources] → merge.
   Returns the result and the sealed sections (seed order, empty unless
   [record]); [Error] carries the message of a static half that failed,
   in which case no seed ran. *)
let run_seeds (c : ctx) options mode prepared ~detect ~record sources =
  match Lazy.force prepared with
  | exception e -> Error (snd (describe_exn e))
  | p ->
      let notes = clamp_notes options in
      let out =
        fan_out c options (run_one c options mode p ~detect ~record) sources
      in
      Ok
        ( finish_result mode p ~detect ~notes (List.map fst out),
          List.filter_map snd out )

let executions (options : Options.t) =
  List.map (fun seed -> Execute seed) options.Options.seeds

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)

let resolve_text text =
  match Arde_tir.Parse.program text with
  | Error e -> Error (Arde_tir.Parse.error_to_string e)
  | Ok program -> (
      match Arde_tir.Validate.check program with
      | Ok () -> Ok program
      | Error errs ->
          Error
            (String.concat "; " (List.map Arde_tir.Validate.error_to_string errs)))

(* ------------------------------------------------------------------ *)
(* Replay: the detection half alone, fed from a recording             *)

let replay ?(ctx = default_ctx) recorded =
  (* Everything that shapes detection comes from the recording — mode,
     sensitivity, cap, seeds — so a replayed result is comparable byte
     for byte with the live run that produced the trace.  The caller's
     [ctx] contributes only execution machinery: engine choice, pool,
     cancellation. *)
  let mode = Recorded.mode recorded in
  let options = Recorded.options recorded in
  (* verified equal to the canonical digest at load time *)
  let digest = Digest.from_hex (Recorded.digest_hex recorded) in
  let prepared =
    lazy (prepare ~digest options mode (Recorded.program recorded))
  in
  let sources = List.map (fun sec -> Replay sec) (Recorded.sections recorded) in
  match
    run_seeds ctx options mode prepared ~detect:true ~record:false sources
  with
  | Ok (result, _) -> result
  | Error msg -> failed_result mode msg

(* ------------------------------------------------------------------ *)
(* Prediction: sync-preserving races from recorded sections           *)

module Sp = Arde_predict.Sp_predict

(* How many recorded executions a [Predict] analysis consumes.  The
   differential gate promises every sweep-found race from at most this
   many recordings, so the number is part of the contract, not a
   tuning knob. *)
let predict_limit = 2

let take n xs =
  let rec go n = function
    | x :: tl when n > 0 -> x :: go (n - 1) tl
    | _ -> []
  in
  go n xs

(* Predict over the first [predict_limit] non-cancelled sections.  Never
   raises: an undecodable section (a salvaged chaos trace, a truncated
   stream) is skipped with a note — prediction only ever reads events
   that survived the codec's hash check, so a sick recording degrades
   coverage, never correctness. *)
let predict_from_sections ~instrument sections =
  let suppress =
    match instrument with
    | Some inst -> fun b -> Arde_cfg.Instrument.is_sync_base inst b
    | None -> fun _ -> false
  in
  let config = { Sp.default_config with suppress } in
  let chosen =
    take predict_limit
      (List.filter
         (fun (s : Codec.section) ->
           s.Codec.s_trailer.Codec.t_outcome <> Codec.Cancelled)
         sections)
  in
  let races = ref [] and notes = ref [] in
  let sections_used = ref 0
  and events = ref 0
  and cands = ref 0
  and predicted = ref 0
  and steps = ref 0
  and hits = ref 0 in
  List.iter
    (fun (sec : Codec.section) ->
      let skip msg =
        notes :=
          Printf.sprintf "predict: seed %d skipped: %s" sec.Codec.s_seed msg
          :: !notes
      in
      match Codec.decode_events_list sec with
      | Error e -> skip (Codec.error_to_string e)
      | exception e -> skip (snd (describe_exn e))
      | Ok evs -> (
          match Sp.predict ~config (Array.of_list evs) with
          | rs, st ->
              incr sections_used;
              events := !events + st.Sp.s_events;
              cands := !cands + st.Sp.s_candidates;
              predicted := !predicted + st.Sp.s_predicted;
              steps := !steps + st.Sp.s_closure_steps;
              hits := !hits + st.Sp.s_budget_hits;
              races := !races @ rs
          | exception e -> skip (snd (describe_exn e))))
    chosen;
  ( !races,
    {
      pr_sections = !sections_used;
      pr_events = !events;
      pr_candidates = !cands;
      pr_predicted = !predicted;
      pr_new_contexts = 0;
      pr_closure_steps = !steps;
      pr_budget_hits = !hits;
      pr_notes = List.rev !notes;
    } )

let race_of_predicted (p : Sp.race) =
  {
    Report.r_base = p.Sp.p_base;
    r_idx = p.Sp.p_idx;
    r_first_tid = p.Sp.p_first_tid;
    r_first_loc = p.Sp.p_first_loc;
    r_first_write = p.Sp.p_first_write;
    r_second_tid = p.Sp.p_second_tid;
    r_second_loc = p.Sp.p_second_loc;
    r_second_write = p.Sp.p_second_write;
    r_predicted = true;
  }

(* Fold predicted races into the merged report {e after} every observed
   one: {!Report.add} keeps the first representative per context, so a
   context the sweep already saw stays an observed race and only
   genuinely new contexts carry the [predicted] tag.  Sections are
   visited in seed order and contexts in discovery order, so the merged
   report stays byte-stable. *)
let merge_predicted result (races, p) =
  let before = Report.n_contexts result.merged in
  List.iter (fun r -> Report.add result.merged (race_of_predicted r)) races;
  let p = { p with pr_new_contexts = Report.n_contexts result.merged - before } in
  { result with prediction = Some p }

(* Attach a prediction computed from [sections] to [result].  The
   [prepare] call here is a guaranteed cache hit (the run or replay that
   produced [result] already prepared the program); it only recovers the
   instrumentation so the predictor suppresses the same spin-condition
   bases the engine does. *)
let predict_into (c : ctx) options mode program result sections =
  if result.runs = [] || sections = [] then result
  else begin
    let instrument =
      match prepare ?digest:c.c_program_digest options mode program with
      | p -> p.Analysis_cache.p_instrument
      | exception _ -> None
    in
    merge_predicted result (predict_from_sections ~instrument sections)
  end

(* The analysis-aware live pipeline: [Sweep] is the classic path,
   [Predict] trims the run to [predict_limit] recorded seeds and
   predicts from their traces, [Both] sweeps every seed and predicts
   from the first recordings (the differential configuration). *)
let run_live (c : ctx) mode program =
  let analysis = c.c_options.Options.analysis in
  let options =
    if analysis <> Options.Predict then c.c_options
    else
      Options.with_seeds
        (take predict_limit c.c_options.Options.seeds)
        c.c_options
  in
  let prepared =
    lazy (prepare ?digest:c.c_program_digest options mode program)
  in
  let record = analysis <> Options.Sweep in
  match
    run_seeds c options mode prepared ~detect:true ~record (executions options)
  with
  | Error msg -> failed_result mode msg
  | Ok (result, sections) when record ->
      predict_into c options mode program result sections
  | Ok (result, _) -> result

(* ------------------------------------------------------------------ *)
(* The front door                                                     *)

let mode_conflict requested recorded_mode =
  Printf.sprintf
    "replay: trace was recorded in mode %s; re-run the program to detect in \
     mode %s"
    (Config.mode_id recorded_mode)
    (Config.mode_id requested)

let run ?(ctx = default_ctx) ?mode input =
  match (input : Input.t) with
  | Input.Recorded_trace r -> (
      match mode with
      | Some m when m <> Recorded.mode r ->
          failed_result m (mode_conflict m (Recorded.mode r))
      | _ -> (
          let result = replay ~ctx r in
          (* Replay itself is pinned to the recording; whether to ALSO
             predict from it is the caller's choice, so the analysis
             knob is read from [ctx], not the recorded options. *)
          match ctx.c_options.Options.analysis with
          | Options.Sweep -> result
          | Options.Predict | Options.Both ->
              (* prepare under the RECORDED mode/options: the predictor
                 must suppress exactly the bases the recorded run's
                 engine did *)
              let digest = Digest.from_hex (Recorded.digest_hex r) in
              let c = { ctx with c_program_digest = Some digest } in
              predict_into c (Recorded.options r) (Recorded.mode r)
                (Recorded.program r) result (Recorded.sections r)))
  | Input.Program program ->
      let mode = Option.value mode ~default:default_mode in
      run_live ctx mode program
  | Input.Text text -> (
      let mode = Option.value mode ~default:default_mode in
      match resolve_text text with
      | Error msg -> failed_result mode msg
      | Ok program -> run_live ctx mode program)

(* ------------------------------------------------------------------ *)
(* Recording                                                          *)

type recording = { rec_trace : string; rec_result : result option }

let record ?(ctx = default_ctx) ?(mode = default_mode) ?(detect = false)
    ?(source = "") input =
  let resolved =
    match (input : Input.t) with
    | Input.Recorded_trace _ ->
        Error "record: input is already a recording; replay it instead"
    | Input.Program p -> Ok p
    | Input.Text text -> resolve_text text
  in
  match resolved with
  | Error msg -> Error msg
  | Ok program -> (
      (* The header pins the recording to the canonical program text: a
         loader re-derives the digest from the embedded text and refuses
         a mismatch, and replay re-runs the static half from it. *)
      let text = Arde_tir.Pretty.program_to_string program in
      let digest = Digest.string text in
      let header =
        {
          Codec.h_digest = Digest.to_hex digest;
          h_mode = Config.mode_id mode;
          h_options = Arde_util.Json.to_string ~minify:true
              (Options.to_json ctx.c_options);
          h_source = source;
          h_program = text;
        }
      in
      let options = ctx.c_options in
      let prepared = lazy (prepare ~digest options mode program) in
      match
        run_seeds ctx options mode prepared ~detect ~record:true
          (executions options)
      with
      | Error msg -> Error (if detect then "pipeline: " ^ msg else msg)
      | Ok (result, _) when detect && result.runs = [] ->
          (* no seed ran: nothing was recorded *)
          Error
            (match result.health.h_notes with
            | n :: _ -> n
            | [] -> "record: pipeline failed")
      | Ok (result, sections) ->
          Ok
            {
              rec_trace = Codec.assemble header sections;
              rec_result = (if detect then Some result else None);
            })

let mean_contexts r =
  match r.runs with
  | [] -> 0.
  | runs ->
      let total = List.fold_left (fun acc s -> acc + s.sr_contexts) 0 runs in
      float_of_int total /. float_of_int (List.length runs)

let racy_bases r = Report.racy_bases r.merged

let any_bad_outcome r =
  List.find_map
    (fun s ->
      match s.sr_outcome with
      | Completed Machine.Finished -> None
      | o -> Some o)
    r.runs

let pp_seed_outcome ppf = function
  | Completed o -> Machine.pp_outcome ppf o
  | Crashed (Some l, msg) ->
      Format.fprintf ppf "crashed at %a: %s" Arde_tir.Pretty.loc l msg
  | Crashed (None, msg) -> Format.fprintf ppf "crashed: %s" msg
  | Cancelled -> Format.pp_print_string ppf "cancelled"

let verdict_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Failed -> "failed"

let verdict_of_name = function
  | "healthy" -> Some Healthy
  | "degraded" -> Some Degraded
  | "failed" -> Some Failed
  | _ -> None

let pp_health ppf h =
  Format.fprintf ppf
    "%s (%d seed%s: %d finished, %d deadlocked, %d livelocked, %d \
     fuel-exhausted, %d faulted, %d crashed, %d cancelled)"
    (verdict_name h.h_verdict) h.h_seeds
    (if h.h_seeds = 1 then "" else "s")
    h.h_finished h.h_deadlocked h.h_livelocked h.h_fuel_exhausted h.h_faulted
    h.h_crashed h.h_cancelled;
  List.iter (fun n -> Format.fprintf ppf "@\n  %s" n) h.h_notes

(* ------------------------------------------------------------------ *)
(* Stable serialized forms                                            *)

module J = Arde_util.Json

let health_to_json h =
  J.Obj
    [
      ("verdict", J.String (verdict_name h.h_verdict));
      ("seeds", J.Int h.h_seeds);
      ("finished", J.Int h.h_finished);
      ("deadlocked", J.Int h.h_deadlocked);
      ("livelocked", J.Int h.h_livelocked);
      ("fuel_exhausted", J.Int h.h_fuel_exhausted);
      ("faulted", J.Int h.h_faulted);
      ("crashed", J.Int h.h_crashed);
      ("cancelled", J.Int h.h_cancelled);
      ("notes", J.List (List.map (fun n -> J.String n) h.h_notes));
    ]

let health_of_json j =
  let ( let* ) = Result.bind in
  let int_field name =
    match Option.bind (J.member name j) J.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let* verdict =
    match Option.bind (J.member "verdict" j) J.to_str with
    | Some s -> (
        match verdict_of_name s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unknown verdict %S" s))
    | None -> Error "missing field \"verdict\""
  in
  let* h_seeds = int_field "seeds" in
  let* h_finished = int_field "finished" in
  let* h_deadlocked = int_field "deadlocked" in
  let* h_livelocked = int_field "livelocked" in
  let* h_fuel_exhausted = int_field "fuel_exhausted" in
  let* h_faulted = int_field "faulted" in
  let* h_crashed = int_field "crashed" in
  let* h_cancelled = int_field "cancelled" in
  let* h_notes =
    match Option.bind (J.member "notes" j) J.to_list with
    | Some xs ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match J.to_str x with
            | Some s -> Ok (s :: acc)
            | None -> Error "ill-typed note")
          (Ok []) xs
        |> Result.map List.rev
    | None -> Error "missing field \"notes\""
  in
  Ok
    {
      h_seeds;
      h_finished;
      h_deadlocked;
      h_livelocked;
      h_fuel_exhausted;
      h_faulted;
      h_crashed;
      h_cancelled;
      h_verdict = verdict;
      h_notes;
    }

let seed_run_to_json sr =
  J.Obj
    [
      ("seed", J.Int sr.sr_seed);
      ("outcome", J.String (Format.asprintf "%a" pp_seed_outcome sr.sr_outcome));
      ( "crashed",
        J.Bool
          (match sr.sr_outcome with
          | Crashed _ -> true
          | Completed _ | Cancelled -> false) );
      ("steps", J.Int sr.sr_steps);
      ("contexts", J.Int sr.sr_contexts);
      ("capped", J.Bool sr.sr_capped);
      ("spin_edges", J.Int sr.sr_spin_edges);
      ("memory_words", J.Int sr.sr_memory_words);
      ( "check_failures",
        J.List
          (List.map
             (fun (l, msg) ->
               J.Obj [ ("loc", Report.loc_to_json l); ("msg", J.String msg) ])
             sr.sr_check_failures) );
      ( "cv_diagnostics",
        J.List
          (List.map
             (fun d ->
               J.String (Format.asprintf "%a" Cv_checker.pp_diagnostic d))
             sr.sr_cv_diagnostics) );
    ]

let prediction_to_json p =
  J.Obj
    [
      ("sections", J.Int p.pr_sections);
      ("events", J.Int p.pr_events);
      ("candidates", J.Int p.pr_candidates);
      ("predicted", J.Int p.pr_predicted);
      ("new_contexts", J.Int p.pr_new_contexts);
      ("closure_steps", J.Int p.pr_closure_steps);
      ("budget_hits", J.Int p.pr_budget_hits);
      ("notes", J.List (List.map (fun n -> J.String n) p.pr_notes));
    ]

let result_to_json r =
  J.Obj
    ([
       ("mode", J.String (Config.mode_name r.mode));
       ("spin_loops", J.Int r.n_spin_loops);
       ("report", Report.to_json r.merged);
       ("runs", J.List (List.map seed_run_to_json r.runs));
       ( "static_cv_hazards",
         J.List
           (List.map
              (fun d ->
                J.String (Format.asprintf "%a" Cv_checker.pp_diagnostic d))
              r.static_cv_hazards) );
       ("health", health_to_json r.health);
     ]
    (* absent for sweep results, keeping pinned documents byte-stable *)
    @
    match r.prediction with
    | None -> []
    | Some p -> [ ("prediction", prediction_to_json p) ])

(* ------------------------------------------------------------------ *)
(* Same-trace comparison                                              *)

(* Record once under lib+spin(k), then replay the identical sections
   through an engine per mode: the algorithmic differences between
   detectors, free of schedule variance. *)
let compare_on_trace ?(options = Options.default) ~k program modes =
  List.iter
    (fun mode ->
      if Config.needs_lowering mode then
        invalid_arg
          "Driver.compare_on_trace: library-free modes run a different \
           (lowered) program and cannot share a trace")
    modes;
  let c = ctx ~options () in
  let rec_mode = Config.Helgrind_spin k in
  let prepared = lazy (prepare options rec_mode program) in
  let seeds mode prepared ~detect ~record sources =
    match run_seeds c options mode prepared ~detect ~record sources with
    | Ok out -> out
    | Error msg -> failwith msg
  in
  let _, sections =
    seeds rec_mode prepared ~detect:false ~record:true (executions options)
  in
  let sources = List.map (fun sec -> Replay sec) sections in
  List.map
    (fun mode ->
      (* Spin-less engines must not see the loop metadata, or they would
         suppress marked bases like the spin-aware ones. *)
      let p = Lazy.force prepared in
      let p =
        if Config.spin_k mode <> None then p
        else { p with Analysis_cache.p_instrument = None }
      in
      let result, _ =
        seeds mode (Lazy.from_val p) ~detect:true ~record:false sources
      in
      (mode, result.merged))
    modes
