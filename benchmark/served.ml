(* The served workloads: the real `arde serve` daemon, driven through
   Arde_server.Client by a closed loop of two connections (each waits for
   its verdict before sending again, like `arde submit` callers).

   - serve-edit: the edit-and-resubmit loop — repeats of already-sent
     texts (memory hits) mixed with never-seen nonce variants (the whole
     static phase plus a store write);
   - trace-roundtrip: per drawn PARSEC program, a record request, a
     replay of the trace it returned, and a predict request. *)

module P = Arde_server.Protocol
module Cl = Arde_server.Client
module J = Arde.Json
module O = Arde.Options

let conns = 2
let workers = 2

(* Seconds one connection spends on one round, measured on a 2-core
   x86-64 host.  A run sends a fixed number of whole rounds chosen from
   it, so the timed phase lasts about --seconds there, and every run of
   a workload does the same work. *)
let pace ~edit = if edit then 3.2 else 2.4

(* Set-up is measured on this many fresh daemons; the median is
   reported.  A start-up takes milliseconds, so the sample is cheap. *)
let setup_reps = 15

let rounds_for ~edit seconds =
  max 1 (int_of_float (Float.round (seconds /. pace ~edit)))

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)

type daemon = { pid : int; sock : string; setup_s : float }

let alive pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> false
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (* "pid (comm) S ..." — a zombie has exited *)
      match String.rindex_opt line ')' with
      | Some i when i + 2 < String.length line -> line.[i + 2] <> 'Z'
      | _ -> false

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (try Sys.readdir p with Sys_error _ -> [||]);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let sleep_ms ms = ignore (Unix.select [] [] [] (ms /. 1000.))

let with_client sock f =
  match Cl.connect ~endpoint:(Cl.Unix_socket sock) () with
  | Error e -> Error e
  | Ok cl -> Fun.protect ~finally:(fun () -> Cl.close cl) (fun () -> f cl)

let stats_of sock =
  match with_client sock Cl.stats with
  | Ok resp -> Option.bind (J.member "stats" resp) (fun s -> Some s)
  | Error _ -> None

let worker_list stats =
  match Option.bind (J.member "supervision" stats) (J.member "workers") with
  | Some (J.List ws) -> ws
  | _ -> []

let int_field k j = match J.member k j with Some (J.Int n) -> n | _ -> 0

(* Ready: the supervisor answers ping and lists every worker live (each
   worker has sent its hello: domain pool built, spool reachable). *)
let ready sock =
  match
    with_client sock (fun cl ->
        match Cl.ping cl with
        | Ok r when P.response_ok r -> Cl.stats cl
        | Ok _ -> Error "ping refused"
        | Error e -> Error e)
  with
  | Ok resp -> (
      match J.member "stats" resp with
      | Some s ->
          let live =
            List.filter (fun w -> J.member "state" w = Some (J.String "live")) (worker_list s)
          in
          List.length live = workers
      | None -> false)
  | Error _ -> false

let spawn ~arde ~dir =
  mkdir_p dir;
  let sock = Filename.concat dir "s.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Bstat.now_ns () in
  let pid =
    Unix.create_process arde
      [|
        arde; "serve"; "--socket"; sock; "--workers"; string_of_int workers; "--jobs"; "1";
        "--quiet";
      |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let rec wait n =
    if ready sock then Ok ()
    else if n = 0 then Error "daemon not ready after 60 s"
    else if not (alive pid) then Error "daemon exited during start-up"
    else (
      sleep_ms 0.2;
      wait (n - 1))
  in
  match wait 200_000 with
  | Ok () -> Ok { pid; sock; setup_s = Bstat.s_between t0 (Bstat.now_ns ()) }
  | Error e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Error e

(* SIGTERM drains the daemon, which reaps its workers before exiting;
   wait for all of them, killing any straggler after 10 s. *)
let stop d =
  let wpids =
    match stats_of d.sock with
    | Some s -> List.map (int_field "pid") (worker_list s)
    | None -> []
  in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap n =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when n > 0 ->
        sleep_ms 5.;
        reap (n - 1)
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  reap 2000;
  List.iter
    (fun p ->
      let rec gone n =
        if alive p then
          if n = 0 then try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()
          else (
            sleep_ms 5.;
            gone (n - 1))
      in
      gone 2000)
    wpids

(* Peak RSS of the supervisor plus every worker [arde stats] lists. *)
let daemon_rss d =
  let wpids =
    match stats_of d.sock with
    | Some s -> List.map (int_field "pid") (worker_list s)
    | None -> []
  in
  List.fold_left
    (fun acc p -> acc +. Option.value ~default:0. (Bstat.peak_rss_mb p))
    0. (d.pid :: wpids)

let worker_served d =
  match stats_of d.sock with
  | Some s -> List.map (int_field "served") (worker_list s)
  | None -> []

(* ------------------------------------------------------------------ *)
(* Requests and their answers                                           *)

type sample = {
  s_cls : Gen.cls;
  s_key : string;  (** identifies a distinct request *)
  s_first : bool;  (** first time this connection's run sent it *)
  s_lat_ms : float;
  s_fail : string option;
  s_req_bytes : int;
}

(* What the oracle needs about a distinct request: how to recompute it
   and the answer the daemon gave (normalized result bytes). *)
type distinct = {
  d_payload : [ `Text of Gen.base * string | `Trace of string | `Predict of Gen.base ];
  d_answer : string;
  d_full : J.t option;  (** predict results, for the subset check *)
  d_raw : string option;  (** the response as sent (traced run only) *)
}

type conn_state = {
  mutable samples : sample list;
  distinct : (string, distinct) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable disk_hits : int;
  mutable writes : int;
  mutable store_errors : int;
  mutable replays : (string * string) list;  (** (record key, replay key) *)
}

let conn_state () =
  {
    samples = [];
    distinct = Hashtbl.create 256;
    cache_hits = 0;
    cache_lookups = 0;
    disk_hits = 0;
    writes = 0;
    store_errors = 0;
    replays = [];
  }

let key_of ~kind ~mode body =
  Digest.to_hex (Digest.string (kind ^ "\000" ^ Arde.Config.mode_id mode ^ "\000" ^ body))

(* Send one payload, classify the response.  Returns the response when
   it succeeded. *)
let send cs cl ~req ~cls ~key ~payload ~d_payload =
  let first = not (Hashtbl.mem cs.distinct key) in
  Span.with_ ~req "request" (fun parent ->
      let resp, lat_ms =
        Bstat.timed (fun () ->
            Span.with_ ~parent ~req "server.call" (fun _ -> Cl.request_payload cl payload))
      in
      let fail, answer =
        match resp with
        | Error e -> (Some ("transport: " ^ e), None)
        | Ok r when not (P.response_ok r) ->
            ( Some
                (match P.response_error r with
                | Some (c, m) -> c ^ ": " ^ m
                | None -> "refused"),
              None )
        | Ok r -> (
            let result = Option.value ~default:J.Null (J.member "result" r) in
            match Option.bind (J.member "health" result) (J.member "verdict") with
            | Some (J.String "failed") -> (Some "failed health", None)
            | _ ->
                (match J.member "analysis_cache" r with
                | Some ac ->
                    cs.cache_hits <- cs.cache_hits + int_field "prepare_hits" ac;
                    cs.cache_lookups <-
                      cs.cache_lookups + int_field "prepare_hits" ac
                      + int_field "prepare_misses" ac
                | None -> ());
                (match J.member "store" r with
                | Some st ->
                    cs.disk_hits <- cs.disk_hits + int_field "disk_hits" st;
                    cs.writes <- cs.writes + int_field "saves" st;
                    cs.store_errors <- cs.store_errors + int_field "store_errors" st
                | None -> ());
                (None, Some (Oracle.result_bytes result, result, r)))
      in
      (* a distinct request must get the same answer every time *)
      let fail =
        match (fail, answer) with
        | None, Some (bytes, result, r) -> (
            match Hashtbl.find_opt cs.distinct key with
            | None ->
                Hashtbl.replace cs.distinct key
                  {
                    d_payload;
                    d_answer = bytes;
                    d_full = (match cls with Gen.Predict -> Some result | _ -> None);
                    d_raw = (if !Span.enabled then Some (J.to_string r) else None);
                  };
                None
            | Some d when String.equal d.d_answer bytes -> None
            | Some _ -> Some "answer changed between sends")
        | f, _ -> f
      in
      cs.samples <-
        {
          s_cls = cls;
          s_key = key;
          s_first = first;
          s_lat_ms = lat_ms;
          s_fail = fail;
          s_req_bytes = String.length payload;
        }
        :: cs.samples;
      match (resp, fail) with Ok r, None -> Some r | _ -> None)

let encode ~req f = Span.with_ ~req "wire.encode" (fun _ -> J.to_string (f ()))

let request_id conn i = (conn * 1_000_000) + i

(* ------------------------------------------------------------------ *)
(* Workload loops (one per connection)                                  *)

(* A connection sends a fixed number of whole rounds, so every run
   times the same mix of requests. *)

let edit_loop set ~seed ~rounds conn cs cl =
  let st = Gen.stream ~seed ~conn in
  let i = ref 0 in
  for _ = 1 to rounds do
    List.iter
      (fun ((b : Gen.base), text, cls) ->
        let req = request_id conn !i in
        incr i;
        let payload =
          encode ~req (fun () ->
              P.run_request_json ~id:(J.Int req) ~program:text ~mode:b.Gen.b_mode
                ~options:b.Gen.b_options ())
        in
        ignore
          (send cs cl ~req ~cls ~key:(key_of ~kind:"text" ~mode:b.Gen.b_mode text)
             ~payload ~d_payload:(`Text (b, text))))
      (Gen.next_edit_round set st ~conns)
  done

let trace_of resp =
  match Option.bind (J.member "trace" resp) J.to_str with
  | Some b64 -> Result.to_option (Arde.Base64.decode b64)
  | None -> None

let roundtrip_loop bases ~seed ~rounds conn cs cl =
  let st = Gen.stream ~seed ~conn in
  let i = ref 0 in
  let next () =
    let r = request_id conn !i in
    incr i;
    r
  in
  for _ = 1 to rounds do
    List.iter
      (fun (b : Gen.base) ->
        let mode = b.Gen.b_mode in
        let req = next () in
        let payload =
          encode ~req (fun () ->
              P.run_request_json ~id:(J.Int req) ~record:true ~program:b.Gen.b_text ~mode
                ~options:b.Gen.b_options ())
        in
        let recorded =
          send cs cl ~req ~cls:Gen.Record
            ~key:(key_of ~kind:"record" ~mode b.Gen.b_text)
            ~payload ~d_payload:(`Text (b, b.Gen.b_text))
        in
        (match Option.bind recorded trace_of with
        | None -> ()
        | Some trace ->
            let req = next () in
            let payload =
              encode ~req (fun () -> P.replay_request_json ~id:(J.Int req) ~trace ())
            in
            let replay_key = key_of ~kind:"replay" ~mode trace in
            cs.replays <- (key_of ~kind:"record" ~mode b.Gen.b_text, replay_key) :: cs.replays;
            ignore
              (send cs cl ~req ~cls:Gen.Replay ~key:replay_key ~payload
                 ~d_payload:(`Trace trace)));
        let req = next () in
        let options = O.with_analysis O.Predict b.Gen.b_options in
        let payload =
          encode ~req (fun () ->
              P.run_request_json ~id:(J.Int req) ~program:b.Gen.b_text ~mode ~options ())
        in
        ignore
          (send cs cl ~req ~cls:Gen.Predict
             ~key:(key_of ~kind:"predict" ~mode b.Gen.b_text)
             ~payload ~d_payload:(`Predict b)))
      (Gen.next_roundtrip_round bases st)
  done

(* Warm-up (untimed): send every base text once from one connection, so
   the timed phase's repeats find it in the workers' memory. *)
let warm_up d bases =
  with_client d.sock (fun cl ->
      List.iter
        (fun (b : Gen.base) ->
          ignore
            (Cl.run cl ~program:b.Gen.b_text ~mode:b.Gen.b_mode ~options:b.Gen.b_options ()))
        bases;
      Ok ())

(* Run the closed loop: one thread and one connection per client, each
   sending [rounds] rounds.  Returns the per-connection states, the wall
   time from the first send to the last verdict, and connection
   errors. *)
let closed_loop d ~rounds loop =
  let t0 = Bstat.now_ns () in
  let states = Array.init conns (fun _ -> conn_state ()) in
  let errors = ref [] in
  let threads =
    Array.to_list
      (Array.mapi
         (fun conn cs ->
           Thread.create
             (fun () ->
               match
                 with_client d.sock (fun cl ->
                     loop ~rounds conn cs cl;
                     Ok ())
               with
               | Ok () -> ()
               | Error e -> errors := ("connect: " ^ e) :: !errors)
             ())
         states)
  in
  List.iter Thread.join threads;
  (Array.to_list states, Bstat.s_between t0 (Bstat.now_ns ()), !errors)

(* ------------------------------------------------------------------ *)
(* The oracle over a run's distinct requests                            *)

let check_distinct states =
  let all = Hashtbl.create 512 in
  let failed_keys = Hashtbl.create 16 in
  let notes = ref [] in
  let note s = if List.length !notes < 10 then notes := s :: !notes in
  List.iter
    (fun cs ->
      Hashtbl.iter
        (fun k d ->
          match Hashtbl.find_opt all k with
          | Some d' when not (String.equal d'.d_answer d.d_answer) ->
              Hashtbl.replace failed_keys k ();
              note "connections disagree on one request"
          | Some _ -> ()
          | None -> Hashtbl.replace all k d)
        cs.distinct)
    states;
  let sample = ref None and predicted = ref None in
  let sweeps = Hashtbl.create 8 and n_predicted = ref 0 in
  let items = Array.of_seq (Hashtbl.to_seq all) in
  let reference (_, d) =
    try
      match d.d_payload with
      | `Text (b, text) -> Ok (Oracle.ref_text ~mode:b.Gen.b_mode ~options:b.Gen.b_options text)
      | `Trace trace -> Oracle.ref_trace trace
      | `Predict b ->
          Ok
            (Oracle.ref_text ~mode:b.Gen.b_mode
               ~options:(O.with_analysis O.Predict b.Gen.b_options)
               b.Gen.b_text)
    with e -> Error (Printexc.to_string e)
  in
  let references, ref_ms = Bstat.timed (fun () -> Oracle.par_map reference items) in
  Array.iteri
    (fun i (k, d) ->
      let expected = references.(i) in
      let verdict =
        match expected with
        | Error e -> Error e
        | Ok expected ->
            if !sample = None then sample := Some (expected, d.d_answer);
            Oracle.same_bytes ~expected ~got:d.d_answer
      in
      let verdict =
        match (verdict, d.d_payload, d.d_full) with
        | Ok (), `Predict b, Some result ->
            let sweep =
              match Hashtbl.find_opt sweeps b.Gen.b_name with
              | Some s -> s
              | None ->
                  let s =
                    Oracle.ref_sweep16 ~jobs:2 ~mode:b.Gen.b_mode ~options:b.Gen.b_options
                      b.Gen.b_text
                  in
                  Hashtbl.replace sweeps b.Gen.b_name s;
                  s
            in
            let contexts = Oracle.predicted_contexts result in
            n_predicted := !n_predicted + List.length contexts;
            if !predicted = None && contexts <> [] then predicted := Some (sweep, result);
            Oracle.predicted_within ~sweep result
        | v, _, _ -> v
      in
      match verdict with
      | Ok () -> ()
      | Error e ->
          Hashtbl.replace failed_keys k ();
          note e)
    items;
  Printf.eprintf
    "arde_benchmark: oracle: %d distinct requests against ref_engine (%.1f s), %d \
     predicted contexts against the 16-seed sweep\n%!"
    (Hashtbl.length all) (ref_ms /. 1000.) !n_predicted;
  (failed_keys, List.rev !notes, !sample, !predicted)

(* trace-roundtrip: a replay must return exactly its record's answer.
   Returns the replay keys that did not. *)
let check_replays states =
  List.concat_map
    (fun cs ->
      let answer key = Option.map (fun d -> d.d_answer) (Hashtbl.find_opt cs.distinct key) in
      List.filter_map
        (fun (record_key, replay_key) ->
          match (answer record_key, answer replay_key) with
          | Some a, Some b when String.equal a b -> None
          | None, _ | _, None -> None (* already failed on its own *)
          | _ -> Some replay_key)
        cs.replays)
    states
