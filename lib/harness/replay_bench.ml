(* The record/replay benchmark: price the sink against the quiet fast
   path on the bare machine, then price replayed detection against the
   live run it reproduces — and verify it reproduces it exactly.  Feeds
   BENCH_replay.json and the CI gate (sink overhead ≤ 1.1× quiet on the
   headline configuration, byte-identity everywhere). *)

module Config = Arde.Config
module Machine = Arde.Machine
module Codec = Arde.Trace_codec
module Driver = Arde.Driver
module J = Arde.Json

type row = {
  r_workload : string;
  r_mode : string;
  r_steps : int;
  r_events : int;
  r_trace_bytes : int;
  r_bytes_per_event : float;
  r_quiet_steps_per_s : float;
  r_record_steps_per_s : float;
  r_record_overhead : float;
  r_live_s : float;
  r_replay_s : float;
  r_replay_speedup : float;
  r_identical : bool;
}

(* Machine-only overhead: the same compiled program and seed, quiet
   (default observer — the fast path stays armed) vs recording (a fresh
   sink per repetition, as the driver attaches one per seed). *)
let sink_overhead compiled instrument ~fuel ~seed ~repeats =
  let quiet_cfg =
    { Machine.default_config with Machine.seed; fuel; instrument }
  in
  let tq, _, res = Timing.timed ~repeats (fun () -> Machine.run quiet_cfg compiled) in
  let steps = res.Machine.steps in
  let tr, _, _ =
    Timing.timed ~repeats (fun () ->
        let sink = Codec.sink () in
        Machine.run
          { quiet_cfg with Machine.observer = Codec.sink_observer sink }
          compiled)
  in
  let per_s t = if t > 0. then float_of_int steps /. t else 0. in
  (steps, per_s tq, per_s tr, if tq > 0. then tr /. tq else 0.)

let result_bytes r = J.to_string (Driver.result_to_json r)

let bench_one ~repeats info program mode ~fuel ~seeds =
  let p =
    Arde.Analysis_cache.prepare ~style:info.Arde_workloads.Parsec.nolib_style
      ~count_callees:true mode program
  in
  let steps, quiet_sps, record_sps, overhead =
    sink_overhead p.Arde.Analysis_cache.p_compiled
      p.Arde.Analysis_cache.p_instrument ~fuel ~seed:(List.hd seeds) ~repeats
  in
  (* Live vs replay at the driver level: record once (with detection, so
     the live result rides along), then time both halves separately. *)
  let options = Arde.Options.make ~seeds ~fuel () in
  let ctx = Driver.ctx ~options () in
  let input = Arde.Input.Program program in
  let name = info.Arde_workloads.Parsec.pname in
  let recording =
    match Arde.record ~ctx ~mode ~detect:true ~source:name input with
    | Ok r -> r
    | Error e -> failwith (Printf.sprintf "record %s: %s" name e)
  in
  let live = Option.get recording.Driver.rec_result in
  let recorded =
    match Arde.Recorded.of_string recording.Driver.rec_trace with
    | Ok r -> r
    | Error e -> failwith (Printf.sprintf "load %s: %s" name e)
  in
  let live_s, _, _ =
    Timing.timed ~repeats (fun () -> Arde.detect ~ctx ~mode input)
  in
  let replay_s, _, replayed =
    Timing.timed ~repeats (fun () ->
        Arde.detect ~ctx (Arde.Input.Recorded_trace recorded))
  in
  let events = Arde.Recorded.n_events recorded in
  let trace_bytes = String.length recording.Driver.rec_trace in
  {
    r_workload = name;
    r_mode = Config.mode_name mode;
    r_steps = steps;
    r_events = events;
    r_trace_bytes = trace_bytes;
    r_bytes_per_event =
      float_of_int trace_bytes /. float_of_int (max 1 events);
    r_quiet_steps_per_s = quiet_sps;
    r_record_steps_per_s = record_sps;
    r_record_overhead = overhead;
    r_live_s = live_s;
    r_replay_s = replay_s;
    r_replay_speedup = (if replay_s > 0. then live_s /. replay_s else 0.);
    r_identical = result_bytes live = result_bytes replayed;
  }

let default_workloads = [ "swaptions"; "blackscholes"; "streamcluster"; "x264" ]
let modes = [ Config.Helgrind_spin 7; Config.Nolib_spin 7 ]

let run ?(repeats = 3) ?(workloads = default_workloads) ?(fuel = 200_000)
    ?(seeds = [ 1; 2; 3; 4 ]) () =
  List.concat_map
    (fun name ->
      match Arde_workloads.Parsec.find name with
      | None -> failwith (Printf.sprintf "bench replay: no workload %s" name)
      | Some (info, program) ->
          List.map
            (fun mode -> bench_one ~repeats info program mode ~fuel ~seeds)
            modes)
    workloads

let to_json rows =
  J.Obj
    [
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("workload", J.String r.r_workload);
                   ("mode", J.String r.r_mode);
                   ("steps", J.Int r.r_steps);
                   ("events", J.Int r.r_events);
                   ("trace_bytes", J.Int r.r_trace_bytes);
                   ("bytes_per_event", J.Float r.r_bytes_per_event);
                   ("quiet_steps_per_s", J.Float r.r_quiet_steps_per_s);
                   ("record_steps_per_s", J.Float r.r_record_steps_per_s);
                   ("record_overhead", J.Float r.r_record_overhead);
                   ("live_s", J.Float r.r_live_s);
                   ("replay_s", J.Float r.r_replay_s);
                   ("replay_speedup", J.Float r.r_replay_speedup);
                   ("identical", J.Bool r.r_identical);
                 ])
             rows) );
    ]

let render rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-14s %-14s %10s %9s %8s %9s %8s %6s\n" "workload"
       "mode" "events" "bytes/ev" "rec ovh" "replay x" "trace" "ident");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-14s %-14s %10d %9.2f %7.3fx %8.2fx %7dK %6s\n"
           r.r_workload r.r_mode r.r_events r.r_bytes_per_event
           r.r_record_overhead r.r_replay_speedup
           (r.r_trace_bytes / 1024)
           (if r.r_identical then "yes" else "NO")))
    rows;
  Buffer.contents b

(* The overhead bound is enforced where the "cheap enough to leave on"
   claim lives: a compute-bound workload, whose event density reflects
   real programs.  The sync-dense rows (streamcluster, x264 — tens of
   thousands of events per millisecond of quiet runtime) are reported
   for visibility but gated only on identity: a workload that is almost
   nothing but synchronization prices the encoder, not recording. *)
let headline = ("swaptions", Config.mode_name (Config.Nolib_spin 7))
let max_overhead = 1.1

let gate rows =
  let failures = ref [] in
  List.iter
    (fun r ->
      if not r.r_identical then
        failures :=
          Printf.sprintf "%s under %s: replayed result diverged from live"
            r.r_workload r.r_mode
          :: !failures)
    rows;
  (match
     List.find_opt
       (fun r -> (r.r_workload, r.r_mode) = headline)
       rows
   with
  | Some r when r.r_record_overhead > max_overhead ->
      failures :=
        Printf.sprintf
          "%s under %s: recording overhead %.3fx exceeds the %.1fx gate"
          r.r_workload r.r_mode r.r_record_overhead max_overhead
        :: !failures
  | _ -> ());
  List.rev !failures
