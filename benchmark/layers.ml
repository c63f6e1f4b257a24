(* The per-layer metrics of a traced run, derived from the recorded
   spans' self times and the counts the probes and the served loop
   took.  A layer the workload's requests never reach reads 0. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Facts from the served loop (absent on paper-tables). *)
type served = {
  samples : Served.sample list;
  resp_bytes : (string, int) Hashtbl.t;  (** per distinct request *)
  disk_hits : int;
  writes : int;
  store_errors : int;
  worker_served : int list;
  inproc_ms : (string, float) Hashtbl.t;  (** in-process cost per probed request *)
}

let metrics ~spans ~trace_overhead ~error_rate ~memory_hit_ratio ?served () =
  let self = Span.self_times spans in
  let selfs name = Span.self_of ~self spans name in
  let mean_self name = Bstat.mean (selfs name) in
  let sum_self name = Bstat.sum (selfs name) in
  let total = Probe.total and mean_of = Probe.mean_of in
  let machine_ms = sum_self "machine.run" and engine_ms = sum_self "engine.run" in
  let served_p50 pick =
    match served with
    | None -> 0.
    | Some s -> (
        match List.filter_map pick s.samples with [] -> 0. | l -> Bstat.median l)
  in
  let served_mean pick =
    match served with None -> 0. | Some s -> Bstat.mean (List.filter_map pick s.samples)
  in
  let served_int f = match served with None -> 0. | Some s -> float_of_int (f s) in
  let lat s = Some s.Served.s_lat_ms in
  [
    m "tir.parse_ms" "ms" (mean_self "tir.parse");
    m "tir.lower_ms" "ms" (mean_self "tir.lower");
    m "cache.digest_ms" "ms" (mean_self "cache.digest");
    m "cache.prepare_ms" "ms" (mean_self "cache.prepare");
    m "cache.memory_hit_ratio" "fraction" memory_hit_ratio;
    m "store.disk_hits" "count" (served_int (fun s -> s.disk_hits));
    m "store.writes" "count" (served_int (fun s -> s.writes));
    m "store.errors" "count" (served_int (fun s -> s.store_errors));
    m "cfg.instrument_ms" "ms" (mean_self "cfg.instrument");
    m "cfg.static_checks_ms" "ms" (mean_self "cfg.static_checks");
    m "cfg.spin_loops" "count" (mean_of "cfg.spin_loops");
    m "machine.compile_ms" "ms" (mean_self "machine.compile");
    m "machine.steps" "count" (mean_of "machine.steps");
    m "machine.steps_per_s" "1/s" (Bstat.ratio (total "machine.steps") (machine_ms /. 1000.));
    m "engine.events" "count" (mean_of "engine.events");
    m "engine.events_per_s" "1/s"
      (Bstat.ratio (total "engine.events") ((engine_ms -. machine_ms) /. 1000.));
    m "engine.spin_edges" "count" (mean_of "engine.spin_edges");
    m "engine.words_per_event" "words"
      (Bstat.ratio (total "engine.memory_words") (total "engine.events"));
    m "engine.memory_words" "words" (mean_of "engine.memory_words");
    m "driver.detect_ms" "ms" (mean_of "driver.detect_ms");
    m "driver.overhead_frac" "fraction"
      (Bstat.ratio (total "driver.unattributed_ms") (total "driver.detect_ms"));
    m "report.json_ms" "ms" (mean_self "report.json");
    m "codec.record_overhead" "ratio"
      (let sink_reqs = Hashtbl.create 16 in
       List.iter
         (fun (s : Span.t) ->
           if s.Span.name = "codec.record_run" then Hashtbl.replace sink_reqs s.Span.req ())
         spans;
       (* the quiet runs of the same requests the sink ran on *)
       let quiet =
         Bstat.sum
           (List.filter_map
              (fun (s : Span.t) ->
                if s.Span.name = "machine.run" && Hashtbl.mem sink_reqs s.Span.req then
                  Hashtbl.find_opt self s.Span.id
                else None)
              spans)
       in
       Bstat.ratio (sum_self "codec.record_run") quiet);
    m "codec.bytes_per_event" "B" (Bstat.ratio (total "codec.bytes") (total "codec.events"));
    m "codec.decode_ms" "ms" (mean_self "codec.decode");
    m "replay.ms" "ms" (mean_self "replay");
    m "predict.build_ms" "ms" (mean_self "predict.build");
    m "predict.closure_ms" "ms"
      (match selfs "predict.predict" with
      | [] -> 0.
      | l -> (Bstat.sum l -. sum_self "predict.build") /. float_of_int (List.length l));
    m "predict.closure_steps" "count" (mean_of "predict.closure_steps");
    m "predict.yield" "fraction" (Bstat.ratio (total "predict.predicted") (total "predict.candidates"));
    m "predict.budget_hits" "count" (total "predict.budget_hits");
    m "wire.request_bytes" "B" (served_mean (fun s -> Some (float_of_int s.Served.s_req_bytes)));
    m "wire.response_bytes" "B"
      (served_mean (fun s ->
           match served with
           | Some sv ->
               Option.map float_of_int (Hashtbl.find_opt sv.resp_bytes s.Served.s_key)
           | None -> None));
    m "wire.encode_ms" "ms" (mean_self "wire.encode");
    m "wire.decode_ms" "ms" (mean_self "wire.decode");
    m "server.overhead_ms_p50" "ms"
      (served_p50 (fun s ->
           match served with
           | Some sv ->
               Option.map
                 (fun inproc -> s.Served.s_lat_ms -. inproc)
                 (Hashtbl.find_opt sv.inproc_ms s.Served.s_key)
           | None -> None));
    m "server.worker_skew" "ratio"
      (match served with
      | Some { worker_served = (_ :: _) as l; _ } ->
          let hi = List.fold_left max 0 l and lo = List.fold_left min max_int l in
          Bstat.ratio (float_of_int hi) (float_of_int lo)
      | _ -> 0.);
    m "serve.repeat_ms_p50" "ms"
      (served_p50 (fun s -> if s.Served.s_cls = Gen.Repeat || not s.Served.s_first then lat s else None));
    m "serve.unique_ms_p50" "ms"
      (served_p50 (fun s ->
           if s.Served.s_cls = Gen.Unique || (s.Served.s_cls <> Gen.Repeat && s.Served.s_first)
           then lat s
           else None));
    m "trace.overhead_frac" "ratio" trace_overhead;
    m "error_rate" "fraction" error_rate;
  ]
