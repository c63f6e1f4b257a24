(* The benchmark's command line.

     arde_benchmark.exe --workload NAME --seed N --seconds S --trace 0|1
       [--arde PATH] [--workdir DIR]

   Workloads: paper-tables, serve-edit, trace-roundtrip (see README.md).
   With --trace 0 the last line of standard output is one JSON object
   holding every end-to-end metric; with --trace 1 it holds the
   per-layer metrics, and the spans are written to the work directory.
   [correct] is false (and [failed] counts the requests) when any answer
   fails its oracle. *)

module J = Arde.Json

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  arde : string;
  workdir : string;
}

let usage () =
  prerr_endline
    "usage: arde_benchmark --workload paper-tables|serve-edit|trace-roundtrip --seed N \
     --seconds S --trace 0|1 [--arde PATH] [--workdir DIR]";
  exit 2

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = -1;
        seconds = 0.;
        trace = false;
        arde = "_build/default/bin/arde_cli.exe";
        workdir = ".arde_bench";
      }
  in
  let rec go = function
    | "--workload" :: v :: tl -> a := { !a with workload = v }; go tl
    | "--seed" :: v :: tl -> a := { !a with seed = int_of_string v }; go tl
    | "--seconds" :: v :: tl -> a := { !a with seconds = float_of_string v }; go tl
    | "--trace" :: v :: tl -> a := { !a with trace = v = "1" }; go tl
    | "--arde" :: v :: tl -> a := { !a with arde = v }; go tl
    | "--workdir" :: v :: tl -> a := { !a with workdir = v }; go tl
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !a.seed < 0 || !a.seconds <= 0. then usage ();
  !a

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Layers.metric list;
  notes : string list;
}

let print_report args r =
  List.iter (fun n -> prerr_endline ("arde_benchmark: " ^ n)) r.notes;
  let metric (x : Layers.metric) =
    (x.Layers.name, J.Obj [ ("value", J.Float x.Layers.value); ("unit", J.String x.Layers.unit_) ])
  in
  Printf.printf "workload %s, seed %d, trace %d\n" args.workload args.seed
    (if args.trace then 1 else 0);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool r.correct);
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed);
            ("metrics", J.Obj (List.map metric r.metrics));
          ]))

let ok_rate ~attempted ~failed =
  if attempted = 0 then 0. else 1. -. (float_of_int failed /. float_of_int attempted)

let end_to_end ~setup_s ~attempted ~failed ~wall_s ~lat ~p90 ~rss =
  let open Layers in
  [
    m "setup_s" "s" setup_s;
    m "throughput_rps" "req/s" (Bstat.ratio (float_of_int (attempted - failed)) wall_s);
    m "latency_ms_p50" "ms" (Bstat.median lat);
    m "latency_ms_p90" "ms" p90;
    m "peak_rss_mb" "MiB" rss;
    m "ok_rate" "fraction" (ok_rate ~attempted ~failed);
  ]

let write_spans args =
  let dir = Filename.concat args.workdir "traces" in
  Served.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" args.workload args.seed) in
  Span.write path (Span.all ());
  prerr_endline ("arde_benchmark: spans written to " ^ path)

(* ------------------------------------------------------------------ *)

let paper_tables args =
  let seconds = if args.trace then args.seconds /. 2. else args.seconds in
  let o = Tables.run ~seed:args.seed ~seconds in
  let correct = o.Tables.failed = 0 && o.Tables.notes = [] in
  let base = { correct; attempted = o.Tables.attempted; failed = o.Tables.failed; metrics = []; notes = o.Tables.notes } in
  if not args.trace then
    {
      base with
      metrics =
        end_to_end ~setup_s:o.Tables.setup_s ~attempted:o.Tables.attempted ~failed:o.Tables.failed
          ~wall_s:o.Tables.wall_s ~lat:o.Tables.lat_ms ~p90:(Bstat.quantile 0.9 o.Tables.lat_ms)
          ~rss:o.Tables.rss_mb;
    }
  else begin
    let traced_wall = Tables.traced ~seed:args.seed o in
    write_spans args;
    let h = o.Tables.hits in
    {
      base with
      metrics =
        Layers.metrics ~spans:(Span.all ())
          ~trace_overhead:(Bstat.ratio traced_wall o.Tables.wall_s)
          ~error_rate:(1. -. ok_rate ~attempted:o.Tables.attempted ~failed:o.Tables.failed)
          ~memory_hit_ratio:
            (Bstat.ratio
               (float_of_int h.Arde.Analysis_cache.prepare_hits)
               (float_of_int
                  (h.Arde.Analysis_cache.prepare_hits + h.Arde.Analysis_cache.prepare_misses)))
          ();
    }
  end

(* The traced run's probes over a served run's distinct requests: the
   wire decode of every distinct response, and the layer walk of every
   serve-edit base and 13 of its uniques, or of every trace-roundtrip
   program.  Returns the response sizes and the in-process cost of each
   probed request, both by request key. *)
let served_probes ~edit ~rt_bases tstates =
  let resp_bytes = Hashtbl.create 256 and inproc_ms = Hashtbl.create 256 in
  let req = ref 200_000 in
  let next () = incr req; !req in
  let probed = ref 0 in
  List.iter
    (fun cs ->
      Hashtbl.iter
        (fun key (dd : Served.distinct) ->
          (match dd.Served.d_raw with
          | Some raw ->
              Hashtbl.replace resp_bytes key (String.length raw);
              let req = next () in
              Span.with_ ~req "wire.decode" (fun _ ->
                  match J.parse raw with
                  | Ok j -> (
                      match Option.bind (J.member "trace" j) J.to_str with
                      | Some b64 -> ignore (Arde.Base64.decode b64)
                      | None -> ())
                  | Error _ -> ())
          | None -> ());
          match dd.Served.d_payload with
          | `Text (b, text) when edit && not (Hashtbl.mem inproc_ms key) ->
              let unique = not (String.equal text b.Gen.b_text) in
              if (not unique) || !probed < 13 then begin
                if unique then incr probed;
                Hashtbl.replace inproc_ms key
                  (Probe.text_request ~req:(next ()) ~unique ~mode:b.Gen.b_mode
                     ~options:b.Gen.b_options text)
              end
          | _ -> ())
        cs.Served.distinct)
    tstates;
  if not edit then
    List.iter
      (fun cs ->
        List.iter
          (fun (record_key, replay_key) ->
            let base =
              List.find_opt
                (fun (b : Gen.base) ->
                  Served.key_of ~kind:"record" ~mode:b.Gen.b_mode b.Gen.b_text
                  = record_key)
                rt_bases
            in
            match (base, Hashtbl.find_opt cs.Served.distinct replay_key) with
            | Some b, Some { Served.d_payload = `Trace trace; _ }
              when not (Hashtbl.mem inproc_ms record_key) ->
                let record_ms, replay_ms, predict_ms =
                  Probe.trace_request ~req:(next ()) ~mode:b.Gen.b_mode
                    ~options:b.Gen.b_options b.Gen.b_text trace
                in
                Hashtbl.replace inproc_ms record_key record_ms;
                Hashtbl.replace inproc_ms replay_key replay_ms;
                Hashtbl.replace inproc_ms
                  (Served.key_of ~kind:"predict" ~mode:b.Gen.b_mode b.Gen.b_text)
                  predict_ms
            | _ -> ())
          cs.Served.replays)
      tstates;
  (resp_bytes, inproc_ms)

(* The served workloads share everything but the loop, the warm-up set
   and the probes. *)
let served args =
  let edit = args.workload = "serve-edit" in
  let set = Gen.edit_set ~seed:args.seed in
  let rt_bases = Gen.roundtrip_bases () in
  let warm = if edit then Gen.edit_bases set else rt_bases in
  let loop ~rounds conn cs cl =
    if edit then Served.edit_loop set ~seed:args.seed ~rounds conn cs cl
    else Served.roundtrip_loop rt_bases ~seed:args.seed ~rounds conn cs cl
  in
  let run_dir = Filename.concat args.workdir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let dir i = Filename.concat run_dir (Printf.sprintf "d%d" i) in
  let spawn i =
    match Served.spawn ~arde:args.arde ~dir:(dir i) with
    | Ok d -> d
    | Error e -> failwith e
  in
  let live = ref [] in
  let spawn_live i =
    let d = spawn i in
    live := d :: !live;
    d
  in
  (* also on [exit], which the SIGTERM/SIGINT handler calls *)
  let cleanup () =
    List.iter Served.stop !live;
    live := [];
    Served.rm_rf run_dir
  in
  at_exit cleanup;
  Fun.protect ~finally:cleanup (fun () ->
      (* set-up, several times, one daemon at a time; the last one serves
         the timed phase *)
      let setups =
        List.init (Served.setup_reps - 1) (fun i ->
            let x = spawn i in
            Served.stop x;
            x.Served.setup_s)
      in
      let d = spawn_live (Served.setup_reps - 1) in
      let setup_s = Bstat.median (d.Served.setup_s :: setups) in
      let seconds = if args.trace then args.seconds /. 2. else args.seconds in
      let rounds = Served.rounds_for ~edit seconds in
      ignore (Served.warm_up d warm);
      let states, wall_s, conn_errors = Served.closed_loop d ~rounds loop in
      let rss = Served.daemon_rss d in
      let samples = List.concat_map (fun cs -> cs.Served.samples) states in
      let attempted = List.length samples in
      let failed_keys, notes, sample, predicted = Served.check_distinct states in
      let bad_replays = if edit then [] else Served.check_replays states in
      List.iter (fun k -> Hashtbl.replace failed_keys k ()) bad_replays;
      let self = Oracle.self_test ?sample ?predicted () in
      let failed =
        List.length
          (List.filter
             (fun s -> s.Served.s_fail <> None || Hashtbl.mem failed_keys s.Served.s_key)
             samples)
      in
      let fail_notes =
        List.filter_map (fun s -> s.Served.s_fail) samples
        |> List.sort_uniq compare
        |> List.filteri (fun i _ -> i < 5)
      in
      let notes =
        conn_errors @ fail_notes @ notes
        @ (if bad_replays <> [] then [ "replay differs from its record" ] else [])
        @ self
      in
      let correct = failed = 0 && notes = [] && attempted > 0 in
      let lat = List.map (fun s -> s.Served.s_lat_ms) samples in
      if not args.trace then
        {
          correct;
          attempted;
          failed;
          notes;
          metrics =
            end_to_end ~setup_s ~attempted ~failed ~wall_s ~lat
              ~p90:(Bstat.quantile 0.9 lat) ~rss;
        }
      else begin
        (* the same streams again, traced, on a fresh daemon *)
        Served.stop d;
        live := [];
        let d = spawn_live Served.setup_reps in
        ignore (Served.warm_up d warm);
        Span.enabled := true;
        let tstates, traced_wall, _ = Served.closed_loop d ~rounds loop in
        let worker_served = Served.worker_served d in
        let tsamples = List.concat_map (fun cs -> cs.Served.samples) tstates in
        let resp_bytes, inproc_ms = served_probes ~edit ~rt_bases tstates in
        Span.enabled := false;
        write_spans args;
        let sum f = List.fold_left (fun a cs -> a + f cs) 0 tstates in
        let hits = sum (fun cs -> cs.Served.cache_hits)
        and lookups = sum (fun cs -> cs.Served.cache_lookups) in
        {
          correct;
          attempted;
          failed;
          notes;
          metrics =
            Layers.metrics ~spans:(Span.all ())
              ~trace_overhead:(Bstat.ratio traced_wall wall_s)
              ~error_rate:(1. -. ok_rate ~attempted ~failed)
              ~memory_hit_ratio:(Bstat.ratio (float_of_int hits) (float_of_int lookups))
              ~served:
                {
                  Layers.samples = tsamples;
                  resp_bytes;
                  disk_hits = sum (fun cs -> cs.Served.disk_hits);
                  writes = sum (fun cs -> cs.Served.writes);
                  store_errors = sum (fun cs -> cs.Served.store_errors);
                  worker_served;
                  inproc_ms;
                }
              ();
        }
      end)

(* A run that cannot finish (a daemon that does not start, a broken
   connection set-up) exits non-zero without printing a result. *)
let () =
  let args = parse_args () in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  match
    match args.workload with
    | "paper-tables" -> paper_tables args
    | "serve-edit" | "trace-roundtrip" -> served args
    | w -> failwith ("unknown workload " ^ w)
  with
  | report -> print_report args report
  | exception Failure e ->
      prerr_endline ("arde_benchmark: " ^ e);
      exit 1
