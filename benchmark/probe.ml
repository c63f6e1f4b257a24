(* Layer probes for the traced run.

   Each probe takes one request of the workload and calls, one by one,
   the public function of every layer that request passes through —
   parse, lower, instrument, static checks, compile, a quiet machine run,
   a machine run with the engine attached, the driver's detect, the JSON
   report, the trace codec, replay and prediction — each inside a span
   tagged with the request id.  Counts (steps, events, spin edges, bytes)
   are recorded at the same boundaries.  The per-layer metrics are then
   derived from the spans' self times and these counts. *)

module D = Arde.Driver
module O = Arde.Options
module C = Arde.Config
module M = Arde.Machine
module Codec = Arde.Trace_codec

(* ------------------------------------------------------------------ *)
(* Counters: name -> (sum, samples); probes run on the main thread only *)

let counters : (string, float * int) Hashtbl.t = Hashtbl.create 32

let count name v =
  let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt counters name) in
  Hashtbl.replace counters name (s +. v, n + 1)

let total name = fst (Option.value ~default:(0., 0) (Hashtbl.find_opt counters name))

let mean_of name =
  match Hashtbl.find_opt counters name with
  | Some (s, n) when n > 0 -> s /. float_of_int n
  | _ -> 0.

let span = Span.with_

(* ------------------------------------------------------------------ *)
(* The static half, stage by stage                                      *)

type static = {
  program : Arde.Types.program;  (** lowered iff the mode lowers *)
  instrument : Arde.Instrument.t option;
  cv_mutexes : string list;
  inferred_locks : string list;
  compiled : M.compiled;
}

let cv_mutexes_of (p : Arde.Types.program) =
  List.sort_uniq String.compare
    (List.concat_map
       (fun (f : Arde.Types.func) ->
         List.concat_map
           (fun (b : Arde.Types.block) ->
             List.filter_map
               (function
                 | Arde.Types.Cond_wait (_, m) -> Some m.Arde.Types.base | _ -> None)
               b.Arde.Types.ins)
           f.Arde.Types.blocks)
       p.Arde.Types.funcs)

let static_stages ~req ~parent ~(options : O.t) mode program =
  let program =
    if C.needs_lowering mode then
      span ~parent ~req "tir.lower" (fun _ ->
          Arde.Lower.lower ~style:options.O.lower_style program)
    else program
  in
  let instrument =
    match C.spin_k mode with
    | None -> None
    | Some k ->
        let inst =
          span ~parent ~req "cfg.instrument" (fun _ ->
              Arde.Instrument.analyze ~count_callees:options.O.count_callee_blocks ~k
                program)
        in
        count "cfg.spin_loops" (float_of_int (List.length (Arde.Instrument.spins inst)));
        Some inst
  in
  let inferred_locks =
    span ~parent ~req "cfg.static_checks" (fun _ ->
        let li = Arde.Lock_infer.analyze program in
        ignore (Arde.Cv_checker.static_check program);
        if C.infer_locks mode then Arde.Lock_infer.inferred_locks li else [])
  in
  (* the spin cache is built on a compiled program's first run; build it
     here, so neither timed run below pays it *)
  let compiled =
    span ~parent ~req "machine.compile" (fun _ ->
        let c = M.compile program in
        Option.iter (fun inst -> ignore (M.export_spin_cache c inst)) instrument;
        c)
  in
  { program; instrument; cv_mutexes = cv_mutexes_of program; inferred_locks; compiled }

(* A cold [Analysis_cache.prepare]: the cache is switched off for the
   call, so every level recomputes, as for a never-seen program. *)
let cold_prepare ~req ~parent ~(options : O.t) mode program =
  Arde.Analysis_cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Arde.Analysis_cache.set_enabled true)
    (fun () ->
      span ~parent ~req "cache.prepare" (fun _ ->
          ignore
            (Arde.Analysis_cache.prepare ~style:options.O.lower_style
               ~count_callees:options.O.count_callee_blocks mode program)))

let mcfg (options : O.t) st ~seed observer =
  {
    M.policy = options.O.policy;
    seed;
    fuel = options.O.fuel;
    instrument = st.instrument;
    spurious_wakeups = options.O.spurious_wakeups;
    observer;
  }

(* Per seed: a quiet run (the machine alone) and a run with the engine
   and the CV checker attached, as the driver's per-seed stage builds
   them.  Returns the summed engine-run time, the driver's share. *)
let seed_stages ~req ~parent ~(options : O.t) mode st =
  List.fold_left
    (fun acc seed ->
      let res =
        span ~parent ~req "machine.run" (fun _ ->
            M.run (mcfg options st ~seed Arde.Observer.none) st.compiled)
      in
      count "machine.steps" (float_of_int res.M.steps);
      (* the event count, from an untimed run: the observer never changes
         what the machine executes *)
      let events = ref 0 in
      ignore (M.run (mcfg options st ~seed (Arde.Observer.counting events)) st.compiled);
      let engine, ms =
        Bstat.timed (fun () ->
            span ~parent ~req "engine.run" (fun _ ->
                let engine =
                  D.opt_engine
                    (C.make ~sensitivity:options.O.sensitivity ~cap:options.O.cap mode)
                    ~cv_mutexes:st.cv_mutexes ~inferred_locks:st.inferred_locks
                    ~instrument:st.instrument
                in
                let cv = Arde.Cv_checker.create () in
                let observer =
                  Arde.Observer.tee engine.D.e_observer (Arde.Cv_checker.observer cv)
                in
                ignore (M.run (mcfg options st ~seed observer) st.compiled);
                ignore (Arde.Cv_checker.finalize cv);
                engine))
      in
      count "engine.events" (float_of_int !events);
      count "engine.spin_edges" (float_of_int (engine.D.e_spin_edges ()));
      count "engine.memory_words" (float_of_int (engine.D.e_memory_words ()));
      acc +. ms)
    0. options.O.seeds

(* ------------------------------------------------------------------ *)
(* Whole requests                                                       *)

(* Paper-tables call: a program value, no text, no digest. *)
let table_call ~req (call : Gen.table_call) =
  span ~req "request" (fun parent ->
      let options = call.Gen.t_options and mode = call.Gen.t_mode in
      let st = static_stages ~req ~parent ~options mode call.Gen.t_program in
      cold_prepare ~req ~parent ~options mode call.Gen.t_program;
      let engine_ms = seed_stages ~req ~parent ~options mode st in
      (* warm from here: the detect call below hits the cache *)
      let ctx = D.ctx ~options () in
      ignore (Arde.detect ~ctx ~mode (Arde.Input.Program call.Gen.t_program));
      let _, digest_ms =
        Bstat.timed (fun () ->
            span ~parent ~req "cache.digest" (fun _ ->
                Arde.Analysis_cache.digest_of_program call.Gen.t_program))
      in
      let result, detect_ms =
        Bstat.timed (fun () ->
            span ~parent ~req "driver.detect" (fun _ ->
                Arde.detect ~ctx ~mode (Arde.Input.Program call.Gen.t_program)))
      in
      count "driver.detect_ms" detect_ms;
      (* a warm detect is the digest, a cache hit, then the seeds *)
      count "driver.unattributed_ms" (detect_ms -. digest_ms -. engine_ms);
      span ~parent ~req "report.json" (fun _ ->
          ignore (Arde.Json.to_string (D.result_to_json result))))

(* Served request sent as text: what the worker does with it, in
   process — parse, then (for a never-seen text) a cold prepare, then a
   warm detect keyed by the text digest.  Returns the in-process time
   the same request costs without the server, for server.overhead. *)
let text_request ~req ~unique ~mode ~(options : O.t) text =
  span ~req "request" (fun parent ->
      let program, parse_ms =
        Bstat.timed (fun () ->
            span ~parent ~req "tir.parse" (fun _ ->
                match Arde.Parse.program text with
                | Ok p -> p
                | Error e -> failwith (Arde.Parse.error_to_string e)))
      in
      let st = static_stages ~req ~parent ~options mode program in
      let _, prepare_ms =
        Bstat.timed (fun () -> cold_prepare ~req ~parent ~options mode program)
      in
      let engine_ms = seed_stages ~req ~parent ~options mode st in
      (* what an in-process caller without a text digest would pay; the
         daemon passes one, so it is not part of the request's cost *)
      span ~parent ~req "cache.digest" (fun _ ->
          ignore (Arde.Analysis_cache.digest_of_program program));
      let digest = Digest.to_hex (Digest.string text) in
      let ctx = D.ctx ~options ~program_digest:digest () in
      ignore (Arde.detect ~ctx ~mode (Arde.Input.Program program));
      let result, detect_ms =
        Bstat.timed (fun () ->
            span ~parent ~req "driver.detect" (fun _ ->
                Arde.detect ~ctx ~mode (Arde.Input.Program program)))
      in
      count "driver.detect_ms" detect_ms;
      count "driver.unattributed_ms" (detect_ms -. engine_ms);
      span ~parent ~req "report.json" (fun _ ->
          ignore (Arde.Json.to_string (D.result_to_json result)));
      if unique then parse_ms +. prepare_ms +. detect_ms else detect_ms)

(* Record/replay/predict over one recorded trace (the bytes the daemon
   returned).  Returns the in-process times of the three requests. *)
let trace_request ~req ~mode ~(options : O.t) text trace =
  span ~req "request" (fun parent ->
      let program =
        span ~parent ~req "tir.parse" (fun _ -> Arde.Parse.program_exn text)
      in
      let st = static_stages ~req ~parent ~options mode program in
      cold_prepare ~req ~parent ~options mode program;
      (* the recording sink alone, against the quiet run above *)
      List.iter
        (fun seed ->
          let sink = Codec.sink () in
          ignore
            (span ~parent ~req "codec.record_run" (fun _ ->
                 M.run (mcfg options st ~seed (Codec.sink_observer sink)) st.compiled));
          count "codec.events" (float_of_int (Codec.sink_events sink));
          count "codec.bytes" (float_of_int (Codec.sink_size sink)))
        options.O.seeds;
      let _ = seed_stages ~req ~parent ~options mode st in
      let digest = Digest.to_hex (Digest.string text) in
      let ctx = D.ctx ~options ~program_digest:digest () in
      ignore (Arde.detect ~ctx ~mode (Arde.Input.Program program));
      let record_ms =
        snd
          (Bstat.timed (fun () ->
               span ~parent ~req "driver.record" (fun _ ->
                   match Arde.record ~ctx ~mode (Arde.Input.Program program) with
                   | Ok r ->
                       ignore
                         (D.run ~ctx
                            (Arde.Input.Recorded_trace
                               (Result.get_ok (Arde.Recorded.of_string r.D.rec_trace))))
                   | Error e -> failwith e)))
      in
      let recorded, decode_ms =
        Bstat.timed (fun () ->
            span ~parent ~req "codec.decode" (fun _ ->
                match Arde.Recorded.of_string trace with
                | Ok r -> r
                | Error e -> failwith ("trace: " ^ e)))
      in
      let _, replay_ms =
        Bstat.timed (fun () ->
            span ~parent ~req "replay" (fun _ -> D.replay ~ctx recorded))
      in
      (* prediction, layer by layer, over the sections Predict consumes *)
      let suppress =
        match st.instrument with
        | Some inst -> Arde.Instrument.is_sync_base inst
        | None -> fun _ -> false
      in
      let config = { Arde.Sp_predict.default_config with suppress } in
      List.iteri
        (fun i sec ->
          if i < D.predict_limit then
            match Codec.decode_events_list sec with
            | Error _ -> ()
            | Ok evs ->
                let arr = Array.of_list evs in
                ignore
                  (span ~parent ~req "predict.build" (fun _ -> Arde.Sp_trace.build arr));
                let _, stats =
                  span ~parent ~req "predict.predict" (fun _ ->
                      Arde.Sp_predict.predict ~config arr)
                in
                count "predict.candidates" (float_of_int stats.Arde.Sp_predict.s_candidates);
                count "predict.predicted" (float_of_int stats.Arde.Sp_predict.s_predicted);
                count "predict.closure_steps"
                  (float_of_int stats.Arde.Sp_predict.s_closure_steps);
                count "predict.budget_hits" (float_of_int stats.Arde.Sp_predict.s_budget_hits))
        (Arde.Recorded.sections recorded);
      let pctx = D.ctx ~options:(O.with_analysis O.Predict options) ~program_digest:digest () in
      let _, predict_ms =
        Bstat.timed (fun () ->
            span ~parent ~req "driver.predict" (fun _ ->
                Arde.detect ~ctx:pctx ~mode (Arde.Input.Program program)))
      in
      (record_ms, decode_ms +. replay_ms, predict_ms))
