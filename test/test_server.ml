(* The serve subsystem: frame codec, request schemas, scheduler
   admission control, and the daemon end to end over a real Unix domain
   socket — byte-identical results vs the in-process driver, malformed
   frames answered with structured errors, concurrent clients, deadlines
   and the SIGTERM drain state machine. *)

module J = Arde.Json
module P = Arde_server.Protocol
module S = Arde_server.Server
module C = Arde_server.Client
module W = Arde_workloads

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Protocol unit tests (no socket)                                     *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 100_000 'z'; "{\"a\":1}" ] in
  List.iter
    (fun payload ->
      let d = P.decoder () in
      let f = Bytes.of_string (P.frame payload) in
      (* Feed one byte at a time: reassembly must not depend on chunking. *)
      for i = 0 to Bytes.length f - 1 do
        (match P.next_frame d with
        | P.Await -> ()
        | _ -> Alcotest.fail "frame completed early");
        P.feed d f i 1
      done;
      match P.next_frame d with
      | P.Frame got -> checks "payload" payload got
      | _ -> Alcotest.fail "expected a complete frame")
    payloads

let test_frame_pipelined () =
  let d = P.decoder () in
  let bytes = P.frame "first" ^ P.frame "second" ^ P.frame "third" in
  let b = Bytes.of_string bytes in
  P.feed d b 0 (Bytes.length b);
  let rec collect acc =
    match P.next_frame d with
    | P.Frame s -> collect (s :: acc)
    | P.Await -> List.rev acc
    | P.Too_large _ -> Alcotest.fail "unexpected too-large"
  in
  check (Alcotest.list Alcotest.string) "all frames"
    [ "first"; "second"; "third" ]
    (collect [])

let test_frame_too_large () =
  let d = P.decoder ~max_frame:64 () in
  let b = Bytes.of_string (P.frame (String.make 65 'q')) in
  P.feed d b 0 (Bytes.length b);
  (match P.next_frame d with
  | P.Too_large n -> check Alcotest.int "announced size" 65 n
  | _ -> Alcotest.fail "expected Too_large");
  (* A header with the sign bit set must not wrap into a small size. *)
  let d = P.decoder () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 0xF0000000l;
  P.feed d hdr 0 4;
  match P.next_frame d with
  | P.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large for sign-bit header"

let test_request_roundtrip () =
  let options = Arde.Options.make ~seeds:[ 3; 1 ] ~fuel:1234 ~jobs:2 () in
  let mode = Arde.Config.Nolib_spin 5 in
  let req =
    P.run_request_json ~id:(J.Int 42) ~deadline_ms:750 ~program:"entry = m\n"
      ~mode ~options ()
  in
  match P.parse_request (J.to_string req) with
  | Ok (P.Run r) -> (
      check Alcotest.string "id" "42" (J.to_string r.P.rq_id);
      check (Alcotest.option Alcotest.int) "deadline" (Some 750)
        r.P.rq_deadline_ms;
      match r.P.rq_payload with
      | P.Rq_program p ->
          checks "program" "entry = m\n" p.P.rp_program;
          checks "mode" "nolib+spin:5" (Arde.Config.mode_id p.P.rp_mode);
          checkb "record defaults to off" false p.P.rp_record;
          checks "options survive the wire"
            (J.to_string (Arde.Options.to_json options))
            (J.to_string (Arde.Options.to_json p.P.rp_options))
      | P.Rq_trace _ -> Alcotest.fail "parsed as a trace request")
  | Ok _ -> Alcotest.fail "parsed as a non-run request"
  | Error (_, _, e) -> Alcotest.failf "parse_request: %s" e

let test_request_errors () =
  let expect_code want payload =
    match P.parse_request payload with
    | Ok _ -> Alcotest.failf "accepted %S" payload
    | Error (_, code, _) -> checks payload want (P.code_name code)
  in
  expect_code "bad_frame" "{not json";
  expect_code "bad_frame" (String.make 80 '[');
  expect_code "bad_request" {|{"type":"frobnicate"}|};
  expect_code "bad_request" {|{"id":1}|};
  expect_code "bad_request" {|{"type":"run","program":"x","mode":"warp:9"}|};
  expect_code "bad_request"
    {|{"type":"run","program":"x","mode":"lib","deadline_ms":-5}|};
  expect_code "bad_request"
    {|{"type":"run","program":"x","mode":"lib","options":{"seeds":"nope"}}|};
  (* The id is recovered even from a bad request, for correlation. *)
  match P.parse_request {|{"type":"frobnicate","id":7}|} with
  | Error (id, _, _) -> checks "echoed id" "7" (J.to_string id)
  | Ok _ -> Alcotest.fail "accepted unknown type"

let test_mode_id_roundtrip () =
  List.iter
    (fun m ->
      (match Arde.Config.parse_mode (Arde.Config.mode_id m) with
      | Ok m' -> checkb "mode_id roundtrip" true (m = m')
      | Error e -> Alcotest.failf "parse_mode (mode_id): %s" e);
      match Arde.Config.parse_mode (Arde.Config.mode_name m) with
      | Ok m' -> checkb "mode_name also parses" true (m = m')
      | Error e -> Alcotest.failf "parse_mode (mode_name): %s" e)
    (Arde.Config.Nolib_spin_locks 3 :: Arde.Config.all_table1_modes)

(* ------------------------------------------------------------------ *)
(* Scheduler unit tests                                                *)

let test_scheduler_admission () =
  let module Sch = Arde_server.Scheduler in
  let s = Sch.create ~workers:2 ~max_pending:2 in
  checkb "accepted" true (Sch.submit s ~slot:0 1 = Sch.Accepted);
  checkb "accepted" true (Sch.submit s ~slot:1 2 = Sch.Accepted);
  checkb "overloaded beyond max_pending (global bound)" true
    (Sch.submit s ~slot:0 3 = Sch.Overloaded);
  check Alcotest.int "depth" 2 (Sch.depth s);
  check Alcotest.int "refusals counted" 1 (Sch.refused s);
  checkb "pop slot 0" true (Sch.take s ~slot:0 = Some 1);
  checkb "slot 0 busy" true (Sch.busy s ~slot:0);
  checkb "one job per slot" true (Sch.take s ~slot:0 = None);
  check Alcotest.int "in flight" 1 (Sch.in_flight s);
  checkb "taking freed a queue slot" true (Sch.submit s ~slot:0 3 = Sch.Accepted);
  Sch.begin_drain s;
  checkb "draining refuses" true (Sch.submit s ~slot:0 4 = Sch.Draining);
  checkb "queued work survives drain" true (Sch.take s ~slot:1 = Some 2);
  checkb "queued work survives drain" true
    (Sch.take s ~slot:0 = None (* still busy with job 1 *));
  Sch.finish s ~slot:0;
  checkb "slot 0 serves its queue after finishing" true
    (Sch.take s ~slot:0 = Some 3);
  Sch.finish s ~slot:0;
  Sch.finish s ~slot:1;
  checkb "idle after drain" true (Sch.idle s)

(* Refused and deadline-cancelled requests must release their queue
   slot immediately: admission capacity recovers right after a refusal
   burst, not when a worker gets around to the backlog. *)
let test_scheduler_capacity_recovery () =
  let module Sch = Arde_server.Scheduler in
  let s = Sch.create ~workers:1 ~max_pending:3 in
  List.iter
    (fun j -> checkb "fill" true (Sch.submit s ~slot:0 j = Sch.Accepted))
    [ 1; 2; 3 ];
  (* A refusal burst: none of these may consume capacity. *)
  List.iter
    (fun j ->
      checkb "refused at capacity" true (Sch.submit s ~slot:0 j = Sch.Overloaded))
    [ 4; 5; 6; 7; 8 ];
  check Alcotest.int "burst counted" 5 (Sch.refused s);
  check Alcotest.int "depth unchanged by the burst" 3 (Sch.depth s);
  (* Deadline-cancel one queued job: capacity must recover at once. *)
  let cancelled = Sch.remove s ~pred:(fun j -> j = 2) in
  checkb "cancelled the queued job" true (cancelled = [ 2 ]);
  check Alcotest.int "cancellation counted" 1 (Sch.cancelled s);
  checkb "capacity recovered immediately" true
    (Sch.submit s ~slot:0 9 = Sch.Accepted);
  checkb "and is bounded again" true (Sch.submit s ~slot:0 10 = Sch.Overloaded);
  (* Dead-slot re-routing also conserves capacity. *)
  let orphans = Sch.drain_slot s ~slot:0 in
  check Alcotest.int "orphans" 3 (List.length orphans);
  check Alcotest.int "queue empty" 0 (Sch.depth s);
  List.iter (fun j -> Sch.enqueue s ~slot:0 j) orphans;
  check Alcotest.int "re-routed jobs restored" 3 (Sch.depth s);
  checkb "still bounded after re-route" true
    (Sch.submit s ~slot:0 11 = Sch.Overloaded);
  checkb "queue order preserved" true (Sch.take s ~slot:0 = Some 1)

(* ------------------------------------------------------------------ *)
(* Live-server harness                                                 *)

type server = { t : S.t; path : string; spool : string; runner : unit Domain.t }

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "arde-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun entry -> rm_rf (Filename.concat path entry))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* The default worker fleet for tests is small and quick to restart;
   the breaker window is kept tiny so deliberate crash storms in these
   tests exercise restarts, not the circuit breaker (which gets its own
   dedicated test). *)
let start ?tcp ?store_dir ?(workers = 2) ?max_pending ?max_frame ?(jobs = 2)
    ?default_deadline_ms ?watchdog_ms ?(restart_backoff_ms = 10)
    ?breaker_threshold ?(breaker_window_s = 0.001) ?(chaos_plan = "") () =
  let path = fresh_socket () in
  let cfg =
    S.config ?tcp ?store_dir ~workers ?max_pending ?max_frame ~jobs
      ?default_deadline_ms ?watchdog_ms ~restart_backoff_ms ?breaker_threshold
      ~breaker_window_s ~chaos_plan ~socket_path:path ()
  in
  match S.create cfg with
  | Error e -> Alcotest.failf "server create: %s" e
  | Ok t ->
      {
        t;
        path;
        spool = path ^ ".spool";
        runner = Domain.spawn (fun () -> S.run t);
      }

let stop srv =
  S.initiate_drain srv.t;
  Domain.join srv.runner;
  rm_rf srv.spool

let with_server ?tcp ?store_dir ?workers ?max_pending ?max_frame ?jobs
    ?default_deadline_ms ?watchdog_ms ?restart_backoff_ms ?breaker_threshold
    ?breaker_window_s ?chaos_plan f =
  let srv =
    start ?tcp ?store_dir ?workers ?max_pending ?max_frame ?jobs
      ?default_deadline_ms ?watchdog_ms ?restart_backoff_ms ?breaker_threshold
      ?breaker_window_s ?chaos_plan ()
  in
  Fun.protect ~finally:(fun () -> stop srv) (fun () -> f srv)

let connect srv =
  match C.connect ~endpoint:(C.Unix_socket srv.path) () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let with_client srv f =
  let c = connect srv in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

let ok_exn label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label e

(* An endless register-only loop: runs for exactly [fuel] machine steps,
   the knob behind every "slow request" below. *)
let busy_tir = "entry = main\nfunc main():\n  e:\n    nop\n    goto e\n"

let error_code resp =
  match P.response_error resp with Some (code, _) -> code | None -> "none"

(* Poll the server's own stats until [pred] holds — timing-free
   synchronization on queue state (stats are answered by the connection
   loop even mid-drain). *)
let await_stats ?(tries = 400) cl ~what pred =
  let rec go tries =
    if tries = 0 then Alcotest.failf "timed out waiting for %s" what;
    let stats =
      Option.value ~default:J.Null
        (J.member "stats" (ok_exn "stats" (C.stats cl)))
    in
    let at path =
      List.fold_left (fun j k -> Option.bind j (J.member k)) (Some stats) path
    in
    let int_at path = Option.bind (at path) J.to_int in
    let bool_at path = Option.bind (at path) J.to_bool in
    if pred ~int_at ~bool_at then ()
    else begin
      Unix.sleepf 0.01;
      go (tries - 1)
    end
  in
  go tries

(* ------------------------------------------------------------------ *)
(* Byte-identity: served results vs the in-process driver              *)

let identity_cases () =
  let all = W.Racey.all () in
  let cats =
    List.sort_uniq compare (List.map (fun c -> c.W.Racey.category) all)
  in
  let picked =
    List.filter_map
      (fun cat ->
        List.find_opt
          (fun c -> c.W.Racey.category = cat && c.W.Racey.threads <= 4)
          all)
      cats
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take 3 picked

let identity_options =
  Arde.Options.make ~seeds:(List.init 16 (fun i -> i + 1)) ~fuel:30_000 ()

let local_result_string case mode =
  let r =
    Arde.detect
      ~ctx:(Arde.Driver.ctx ~options:identity_options ())
      ~mode (Arde.Input.Program case.W.Racey.program)
  in
  J.to_string (Arde.Driver.result_to_json r)

let served_result_string cl case mode =
  let resp =
    ok_exn "run"
      (C.run cl
         ~program:(Arde.Pretty.program_to_string case.W.Racey.program)
         ~mode ~options:identity_options ())
  in
  if not (P.response_ok resp) then
    Alcotest.failf "server refused %s: %s" case.W.Racey.name (error_code resp);
  match J.member "result" resp with
  | Some r -> J.to_string r
  | None -> Alcotest.fail "ok response without result"

let test_byte_identity () =
  let cases = identity_cases () in
  checkb "picked some cases" true (cases <> []);
  with_server ~jobs:1 (fun srv ->
      with_client srv (fun cl ->
          List.iter
            (fun case ->
              List.iter
                (fun mode ->
                  checks
                    (Printf.sprintf "%s under %s" case.W.Racey.name
                       (Arde.Config.mode_id mode))
                    (local_result_string case mode)
                    (served_result_string cl case mode))
                Arde.Config.all_table1_modes)
            cases))

(* The replay farm: a record-mode run returns the binary trace in its
   response, and submitting that trace back — with no program, mode or
   options of its own — reproduces the result byte-for-byte, as does a
   local replay of the very same bytes. *)
let test_record_then_server_replay () =
  let case = List.hd (identity_cases ()) in
  let mode = Arde.Config.Helgrind_spin 7 in
  with_server ~jobs:1 (fun srv ->
      with_client srv (fun cl ->
          let resp =
            ok_exn "record run"
              (C.run cl ~record:true
                 ~program:(Arde.Pretty.program_to_string case.W.Racey.program)
                 ~mode ~options:identity_options ())
          in
          if not (P.response_ok resp) then
            Alcotest.failf "record run refused: %s" (error_code resp);
          let recorded_result =
            match J.member "result" resp with
            | Some r -> J.to_string r
            | None -> Alcotest.fail "record response without result"
          in
          checks "record-mode result matches the local driver"
            (local_result_string case mode)
            recorded_result;
          let trace =
            match Option.bind (J.member "trace" resp) J.to_str with
            | None -> Alcotest.fail "record response without trace"
            | Some b64 -> ok_exn "trace base64" (Arde.Base64.decode b64)
          in
          let replay_resp = ok_exn "replay" (C.replay cl ~trace ()) in
          if not (P.response_ok replay_resp) then
            Alcotest.failf "replay refused: %s" (error_code replay_resp);
          (match J.member "result" replay_resp with
          | None -> Alcotest.fail "replay response without result"
          | Some r ->
              checks "served replay reproduces the recorded result"
                recorded_result (J.to_string r));
          (* the same bytes replayed in-process agree too *)
          let recorded =
            ok_exn "local load" (Arde.Recorded.of_string trace)
          in
          let local_replay =
            Arde.detect (Arde.Input.Recorded_trace recorded)
          in
          checks "local replay reproduces the recorded result" recorded_result
            (J.to_string (Arde.Driver.result_to_json local_replay));
          (* hostile trace bytes are a structured refusal, not a crash *)
          let bad = ok_exn "bad replay" (C.replay cl ~trace:"garbage" ()) in
          checkb "garbage trace refused" true (not (P.response_ok bad));
          checks "garbage trace is bad_request" "bad_request" (error_code bad);
          match C.ping cl with
          | Ok r when P.response_ok r -> ()
          | _ -> Alcotest.fail "connection did not survive the bad trace"))

(* Eight concurrent clients, mixed valid and invalid traffic: every
   valid request's result must still be byte-identical to the local
   driver, and every invalid one must come back as a structured error
   with the connection (and server) surviving. *)
let test_concurrent_clients () =
  let cases = identity_cases () in
  let modes = Arde.Config.all_table1_modes in
  let case i = List.nth cases (i mod List.length cases) in
  let mode i = List.nth modes (i mod List.length modes) in
  let expected =
    List.concat_map
      (fun c ->
        List.map
          (fun m -> ((c.W.Racey.name, Arde.Config.mode_id m),
                     local_result_string c m))
          modes)
      cases
  in
  let lookup c m =
    List.assoc (c.W.Racey.name, Arde.Config.mode_id m) expected
  in
  with_server (fun srv ->
      let client_body i () =
        let failures = ref [] in
        let fail fmt =
          Printf.ksprintf (fun s -> failures := s :: !failures) fmt
        in
        (match C.connect ~endpoint:(C.Unix_socket srv.path) () with
        | Error e -> fail "client %d: connect: %s" i e
        | Ok cl ->
            Fun.protect
              ~finally:(fun () -> C.close cl)
              (fun () ->
                if i mod 4 = 3 then begin
                  (* Invalid traffic: junk frame, unknown type, bad mode —
                     each answered, none fatal to the connection. *)
                  (match C.send_frame cl "{broken" with
                  | Ok () -> ()
                  | Error e -> fail "client %d: send: %s" i e);
                  (match C.recv cl with
                  | Ok resp when error_code resp = "bad_frame" -> ()
                  | Ok resp ->
                      fail "client %d: junk got %s" i (J.to_string resp)
                  | Error e -> fail "client %d: recv: %s" i e);
                  (match
                     C.request cl (J.Obj [ ("type", J.String "warp") ])
                   with
                  | Ok resp when error_code resp = "bad_request" -> ()
                  | Ok resp ->
                      fail "client %d: warp got %s" i (J.to_string resp)
                  | Error e -> fail "client %d: recv: %s" i e);
                  match C.ping cl with
                  | Ok resp when P.response_ok resp -> ()
                  | Ok _ -> fail "client %d: ping refused" i
                  | Error e -> fail "client %d: ping: %s" i e
                end
                else
                  let c = case i and m = mode i in
                  match
                    C.run cl
                      ~program:
                        (Arde.Pretty.program_to_string c.W.Racey.program)
                      ~mode:m ~options:identity_options ()
                  with
                  | Error e -> fail "client %d: run: %s" i e
                  | Ok resp when not (P.response_ok resp) ->
                      fail "client %d: refused: %s" i (error_code resp)
                  | Ok resp -> (
                      match J.member "result" resp with
                      | None -> fail "client %d: no result" i
                      | Some r ->
                          if J.to_string r <> lookup c m then
                            fail "client %d: result diverged on %s/%s" i
                              c.W.Racey.name (Arde.Config.mode_id m))));
        List.rev !failures
      in
      let domains =
        List.init 8 (fun i -> Domain.spawn (client_body i))
      in
      let failures = List.concat_map Domain.join domains in
      check (Alcotest.list Alcotest.string) "no client failures" [] failures)

(* ------------------------------------------------------------------ *)
(* Malformed input against a live server                               *)

let test_malformed_frames () =
  with_server ~max_frame:(256 * 1024) (fun srv ->
      (* Oversized length header: structured error, then disconnect. *)
      with_client srv (fun cl ->
          let hdr = Bytes.create 4 in
          Bytes.set_int32_be hdr 0 (Int32.of_int ((256 * 1024) + 1));
          (match C.send_raw cl (Bytes.to_string hdr) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "send header: %s" e);
          (match C.recv cl with
          | Ok resp -> checks "oversized" "bad_frame" (error_code resp)
          | Error e -> Alcotest.failf "recv: %s" e);
          match C.recv cl with
          | Error _ -> () (* server dropped the poisoned stream *)
          | Ok resp ->
              Alcotest.failf "expected disconnect, got %s" (J.to_string resp));
      (* Truncated header, then mid-frame disconnect: server survives. *)
      with_client srv (fun cl ->
          ignore (C.send_raw cl "\x00\x00"));
      with_client srv (fun cl ->
          let b = Bytes.create 4 in
          Bytes.set_int32_be b 0 100l;
          ignore (C.send_raw cl (Bytes.to_string b ^ "only ten b")));
      (* Invalid JSON / unknown type / bad program are per-request
         errors: the connection stays usable. *)
      with_client srv (fun cl ->
          ignore (ok_exn "send" (C.send_frame cl "][ not json"));
          checks "invalid json" "bad_frame"
            (error_code (ok_exn "recv" (C.recv cl)));
          checks "depth bomb" "bad_frame"
            (error_code
               (ok_exn "recv"
                  (let bomb = String.make 80 '[' in
                   ignore (ok_exn "send" (C.send_frame cl bomb));
                   C.recv cl)));
          let resp =
            ok_exn "request"
              (C.request cl
                 (J.Obj [ ("type", J.String "selfdestruct"); ("id", J.Int 9) ]))
          in
          checks "unknown type" "bad_request" (error_code resp);
          checks "id echoed" "9"
            (J.to_string (Option.value ~default:J.Null (J.member "id" resp)));
          let resp =
            ok_exn "request"
              (C.run cl ~program:"this is not tir"
                 ~mode:Arde.Config.Helgrind_lib
                 ~options:(Arde.Options.make ()) ())
          in
          checks "unparsable program" "bad_request" (error_code resp);
          (* ... and the same connection still serves a real run. *)
          let resp =
            ok_exn "request"
              (C.run cl ~program:busy_tir ~mode:Arde.Config.Helgrind_lib
                 ~options:(Arde.Options.make ~seeds:[ 1 ] ~fuel:100 ())
                 ())
          in
          checkb "healthy after abuse" true (P.response_ok resp)))

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let test_admission_control () =
  with_server ~jobs:1 ~max_pending:1 (fun srv ->
      let slow = Arde.Options.make ~seeds:[ 1 ] ~fuel:20_000_000 () in
      let quick = Arde.Options.make ~seeds:[ 1 ] ~fuel:100 () in
      with_client srv (fun blocker ->
          (* Occupy the worker without waiting for the response. *)
          ignore
            (ok_exn "send slow"
               (C.send_frame blocker
                  (J.to_string
                     (P.run_request_json ~id:(J.Int 0) ~program:busy_tir
                        ~mode:Arde.Config.Helgrind_lib ~options:slow ()))));
          with_client srv (fun cl ->
              (* Wait until the worker has actually dequeued the slow
                 request — otherwise it still occupies the queue slot
                 and the whole burst would bounce. *)
              await_stats cl ~what:"blocker in flight"
                (fun ~int_at ~bool_at:_ ->
                  int_at [ "queue"; "in_flight" ] = Some 1
                  && int_at [ "queue"; "depth" ] = Some 0);
              (* Burst three more: the queue holds one, so at least one
                 must bounce with a structured overloaded error. *)
              List.iter
                (fun i ->
                  ignore
                    (ok_exn "send burst"
                       (C.send_frame cl
                          (J.to_string
                             (P.run_request_json ~id:(J.Int i)
                                ~program:busy_tir
                                ~mode:Arde.Config.Helgrind_lib ~options:quick
                                ())))))
                [ 1; 2; 3 ];
              let responses = List.map (fun _ -> ok_exn "recv" (C.recv cl)) [ 1; 2; 3 ] in
              let overloaded, completed =
                List.partition
                  (fun r -> error_code r = "overloaded")
                  responses
              in
              checkb "at least one bounced" true (overloaded <> []);
              checkb "at least one served" true (completed <> []);
              List.iter
                (fun r -> checkb "non-bounced are ok" true (P.response_ok r))
                completed);
          (* The slow blocker still completes with its findings. *)
          let resp = ok_exn "recv blocker" (C.recv blocker) in
          checkb "blocker completed" true (P.response_ok resp)))

(* ------------------------------------------------------------------ *)
(* Per-request deadlines                                               *)

let test_deadline_cancels_remaining_seeds () =
  with_server ~jobs:1 (fun srv ->
      with_client srv (fun cl ->
          let options =
            Arde.Options.make ~seeds:[ 1; 2; 3 ] ~fuel:20_000_000 ()
          in
          let resp =
            ok_exn "run"
              (C.run cl ~deadline_ms:100 ~program:busy_tir
                 ~mode:Arde.Config.Helgrind_lib ~options ())
          in
          checkb "deadline is not an error" true (P.response_ok resp);
          let health =
            match
              Option.bind
                (Option.bind (J.member "result" resp) (J.member "health"))
                (fun h -> Result.to_option (Arde.Driver.health_of_json h))
            with
            | Some h -> h
            | None -> Alcotest.fail "no parsable health in response"
          in
          (* Seed 1 starts before the deadline and burns well past it;
             seeds 2 and 3 must then be cancelled, not run. *)
          check Alcotest.int "cancelled seeds" 2 health.Arde.Driver.h_cancelled;
          check Alcotest.int "seed 1 ran to fuel exhaustion" 1
            health.Arde.Driver.h_fuel_exhausted;
          checkb "degraded, not failed" true
            (health.Arde.Driver.h_verdict = Arde.Driver.Degraded)))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats () =
  with_server ~max_pending:7 (fun srv ->
      with_client srv (fun cl ->
          ignore (ok_exn "ping" (C.ping cl));
          let quick = Arde.Options.make ~seeds:[ 1 ] ~fuel:100 () in
          let run () =
            let r =
              ok_exn "run"
                (C.run cl ~program:busy_tir ~mode:Arde.Config.Helgrind_lib
                   ~options:quick ())
            in
            checkb "run ok" true (P.response_ok r)
          in
          run ();
          run ();
          let resp = ok_exn "stats" (C.stats cl) in
          checkb "stats ok" true (P.response_ok resp);
          let stats =
            Option.value ~default:J.Null (J.member "stats" resp)
          in
          let int_at path =
            match
              Option.bind
                (List.fold_left
                   (fun j k -> Option.bind j (J.member k))
                   (Some stats) path)
                J.to_int
            with
            | Some n -> n
            | None ->
                Alcotest.failf "stats missing %s" (String.concat "." path)
          in
          check Alcotest.int "received" 4 (int_at [ "requests"; "received" ]);
          check Alcotest.int "ok runs" 2 (int_at [ "requests"; "ok" ]);
          check Alcotest.int "pings" 1 (int_at [ "requests"; "ping" ]);
          check Alcotest.int "no crashes" 0
            (int_at [ "requests"; "worker_crashed" ]);
          check Alcotest.int "no retries" 0 (int_at [ "requests"; "retries" ]);
          check Alcotest.int "no spool errors" 0
            (int_at [ "requests"; "spool_errors" ]);
          check Alcotest.int "max_pending echoes config" 7
            (int_at [ "queue"; "max_pending" ]);
          check Alcotest.int "no refusals" 0 (int_at [ "queue"; "refused" ]);
          check Alcotest.int "supervision: quiet fleet" 0
            (int_at [ "supervision"; "crashes" ]
            + int_at [ "supervision"; "restarts" ]
            + int_at [ "supervision"; "watchdog_kills" ]
            + int_at [ "supervision"; "bundles_sealed" ]
            + int_at [ "supervision"; "breaker_open" ]);
          (match
             Option.bind (J.member "supervision" stats) (J.member "workers")
           with
          | Some (J.List ws) ->
              check Alcotest.int "per-worker health rows" 2 (List.length ws);
              List.iter
                (fun w ->
                  match Option.bind (J.member "state" w) J.to_str with
                  | Some ("live" | "starting") -> ()
                  | s ->
                      Alcotest.failf "unexpected worker state %s"
                        (Option.value ~default:"?" s))
                ws
          | _ -> Alcotest.fail "stats missing supervision.workers");
          check Alcotest.int "no bundles" 0 (int_at [ "spool"; "bundles" ]);
          checkb "uptime present" true
            (Option.bind (J.member "uptime_s" stats) J.to_float <> None)))

(* ------------------------------------------------------------------ *)
(* SIGTERM drain                                                       *)

let test_sigterm_drain () =
  let old_term = Sys.signal Sys.sigterm Sys.Signal_default in
  let old_int = Sys.signal Sys.sigint Sys.Signal_default in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)
    (fun () ->
      let srv = start ~jobs:1 () in
      S.handle_signals srv.t;
      let inflight = connect srv in
      let idle_pre_drain = connect srv in
      (* A slow request is in flight when the signal lands. *)
      ignore
        (ok_exn "send slow"
           (C.send_frame inflight
              (J.to_string
                 (P.run_request_json ~id:(J.Int 1) ~program:busy_tir
                    ~mode:Arde.Config.Helgrind_lib
                    ~options:
                      (Arde.Options.make ~seeds:[ 1 ] ~fuel:100_000_000 ())
                    ()))));
      await_stats idle_pre_drain ~what:"slow run in flight"
        (fun ~int_at ~bool_at:_ -> int_at [ "queue"; "in_flight" ] = Some 1);
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      await_stats idle_pre_drain ~what:"drain flag"
        (fun ~int_at:_ ~bool_at -> bool_at [ "queue"; "draining" ] = Some true);
      (* New work on a pre-drain connection: structured refusal. *)
      let resp =
        ok_exn "request during drain"
          (C.run idle_pre_drain ~program:busy_tir
             ~mode:Arde.Config.Helgrind_lib
             ~options:(Arde.Options.make ~seeds:[ 1 ] ~fuel:100 ())
             ())
      in
      checks "pre-drain connection refused" "draining" (error_code resp);
      (* A brand-new connection: refused at accept, also structured. *)
      (match C.connect ~endpoint:(C.Unix_socket srv.path) () with
      | Error _ -> () (* already torn down: acceptable, drain won the race *)
      | Ok fresh ->
          Fun.protect
            ~finally:(fun () -> C.close fresh)
            (fun () ->
              match C.recv fresh with
              | Ok resp ->
                  checks "new connection refused" "draining"
                    (error_code resp)
              | Error _ -> () (* listener closed first *)));
      (* The in-flight request still completes with a real result. *)
      let resp = ok_exn "in-flight response" (C.recv inflight) in
      checkb "in-flight request finished" true (P.response_ok resp);
      checkb "carried a result" true (J.member "result" resp <> None);
      C.close inflight;
      C.close idle_pre_drain;
      (* And the server loop returns (exit 0 in the CLI). *)
      Domain.join srv.runner;
      checkb "socket removed" false (Sys.file_exists srv.path))

(* ------------------------------------------------------------------ *)
(* Shared plumbing units: chaos plans, outbufs, atomic writes, retry   *)

let test_chaos_plan_parse () =
  let module CS = Arde.Chaos.Serve in
  (match CS.parse "kill:3,wedge:5" with
  | Ok plan ->
      checks "roundtrip" "kill:3,wedge:5" (CS.to_string plan);
      checkb "fires on multiples" true (CS.fires plan ~count:6 = [ CS.Kill_self ]);
      checkb "fires both" true
        (CS.fires plan ~count:15 = [ CS.Kill_self; CS.Wedge ]);
      checkb "quiet otherwise" true (CS.fires plan ~count:7 = [])
  | Error e -> Alcotest.failf "parse: %s" e);
  checkb "empty plan" true (CS.parse "" = Ok CS.empty);
  List.iter
    (fun s ->
      match CS.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "kill:0"; "bogus:2"; "kill"; "kill:-3"; "kill:x" ]

let test_outbuf_flush () =
  let module U = Arde_server.Util in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let ob = U.outbuf () in
  U.outbuf_push ob "hello ";
  U.outbuf_push ob "world";
  checkb "buffered" false (U.outbuf_is_empty ob);
  (match U.outbuf_flush ob a with
  | U.Flushed -> ()
  | _ -> Alcotest.fail "expected Flushed");
  let buf = Bytes.create 64 in
  let n = Unix.read b buf 0 64 in
  checks "bytes arrive in order" "hello world" (Bytes.sub_string buf 0 n);
  (* A closed peer surfaces as Peer_gone, not an exception. *)
  Unix.close b;
  U.outbuf_push ob "late";
  (match U.outbuf_flush ob a with
  | U.Peer_gone -> ()
  | _ -> Alcotest.fail "expected Peer_gone");
  Unix.close a

let test_write_file_atomic () =
  let module U = Arde_server.Util in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "arde-atomic-%d.txt" (Unix.getpid ()))
  in
  (match U.write_file_atomic path "first" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" e);
  checkb "readable" true (U.read_file path = Ok "first");
  (match U.write_file_atomic path "second" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rewrite: %s" e);
  checkb "replaced atomically" true (U.read_file path = Ok "second");
  Sys.remove path;
  match U.write_file_atomic "/nonexistent-dir/x/y" "z" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrote into a missing directory"

(* The retry schedule is bounded, exponential, jittered and
   deterministic for a fixed seed; a dead socket burns the whole budget
   and surfaces the transport error. *)
let test_retry_schedule () =
  let dead = fresh_socket () in
  let delays = ref [] in
  let schedule seed =
    delays := [];
    let policy =
      C.retry_policy ~attempts:3 ~backoff_ms:50 ~max_backoff_ms:150
        ~jitter_seed:seed
        ~sleep:(fun d -> delays := d :: !delays)
        ()
    in
    let outcome, retries =
      C.submit_with_retry ~endpoint:(C.Unix_socket dead) ~policy ~program:busy_tir
        ~mode:Arde.Config.Helgrind_lib
        ~options:(Arde.Options.make ~seeds:[ 1 ] ~fuel:10 ())
        ()
    in
    (match outcome with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "a dead socket produced a response");
    check Alcotest.int "used the whole budget" 3 retries;
    List.rev !delays
  in
  let d1 = schedule 42 in
  check Alcotest.int "one delay per retry" 3 (List.length d1);
  List.iteri
    (fun i d ->
      let nominal = float_of_int (min 150 (50 * (1 lsl i))) /. 1000. in
      checkb
        (Printf.sprintf "delay %d within jitter band (%.3f vs %.3f)" i d
           nominal)
        true
        (d >= (0.5 *. nominal) -. 1e-9 && d < 1.5 *. nominal))
    d1;
  checkb "deterministic for equal seeds" true (schedule 42 = d1);
  checkb "seed changes the schedule" true (schedule 43 <> d1)

(* ------------------------------------------------------------------ *)
(* Crash-only serving: fault injection end to end                      *)

let quick_options = Arde.Options.make ~seeds:[ 1; 2 ] ~fuel:2_000 ()

let submit_quick ?(attempts = 0) srv case =
  let policy =
    C.retry_policy ~attempts ~backoff_ms:5 ~max_backoff_ms:50 ~jitter_seed:7
      ()
  in
  C.submit_with_retry ~endpoint:(C.Unix_socket srv.path) ~policy
    ~program:(Arde.Pretty.program_to_string case.W.Racey.program)
    ~mode:Arde.Config.Helgrind_lib ~options:quick_options ()

(* A worker SIGKILLed mid-request yields a structured [worker_crashed]
   response on the same connection — never a dropped connection — plus
   a sealed, replayable crash bundle. *)
let test_worker_crash_structured () =
  with_server ~workers:1 ~chaos_plan:"kill:1" (fun srv ->
      let case = List.hd (identity_cases ()) in
      let program = Arde.Pretty.program_to_string case.W.Racey.program in
      with_client srv (fun cl ->
          let resp =
            ok_exn "run" (C.run cl ~program ~mode:Arde.Config.Helgrind_lib
                            ~options:quick_options ())
          in
          checks "structured crash error" "worker_crashed" (error_code resp);
          (* The same connection is still usable afterwards. *)
          let pong = ok_exn "ping after crash" (C.ping cl) in
          checkb "connection survived the crash" true (P.response_ok pong));
      (* The journaled request was sealed into a bundle that replays
         through the production parser to the same result the direct
         driver produces. *)
      let module Spool = Arde_server.Spool in
      let spool = ok_exn "spool" (Spool.create ~root:srv.spool) in
      match Spool.bundles spool with
      | [] -> Alcotest.fail "no crash bundle sealed"
      | bundle :: _ -> (
          let meta = ok_exn "load bundle" (Spool.load bundle) in
          let raw_req = ok_exn "bundle request" (Spool.bundle_request meta) in
          match P.parse_request raw_req with
          | Ok (P.Run { P.rq_payload = P.Rq_program rp; _ }) ->
              checks "journaled program is verbatim" program rp.P.rp_program;
              let replayed =
                Arde.detect
                  ~ctx:(Arde.Driver.ctx ~options:rp.P.rp_options ())
                  ~mode:rp.P.rp_mode (Arde.Input.Text rp.P.rp_program)
              in
              let local =
                Arde.detect
                  ~ctx:(Arde.Driver.ctx ~options:quick_options ())
                  ~mode:Arde.Config.Helgrind_lib
                  (Arde.Input.Program case.W.Racey.program)
              in
              checks "replay is byte-identical to the direct driver"
                (J.to_string (Arde.Driver.result_to_json local))
                (J.to_string (Arde.Driver.result_to_json replayed))
          | Ok _ -> Alcotest.fail "bundle holds a non-run request"
          | Error (_, _, e) -> Alcotest.failf "bundle request unparsable: %s" e))

(* 200 requests against a fleet whose workers are killed every 8th
   execution: with retries enabled every client completes (none hang),
   every completed report is byte-identical to the direct driver, and
   the restart count stays proportional to the injected crashes. *)
let test_crash_storm () =
  let cases = identity_cases () in
  let expected =
    List.map
      (fun c ->
        ( c.W.Racey.name,
          J.to_string
            (Arde.Driver.result_to_json
               (Arde.detect
                  ~ctx:(Arde.Driver.ctx ~options:quick_options ())
                  ~mode:Arde.Config.Helgrind_lib
                  (Arde.Input.Program c.W.Racey.program))) ))
      cases
  in
  with_server ~workers:2 ~chaos_plan:"kill:8" (fun srv ->
      let total = 200 and clients = 4 in
      let per_client = total / clients in
      let client_body ci () =
        let failures = ref [] in
        let retries = ref 0 in
        for r = 1 to per_client do
          let case =
            List.nth cases ((ci + r) mod List.length cases)
          in
          let outcome, attempts = submit_quick ~attempts:10 srv case in
          retries := !retries + attempts;
          match outcome with
          | Error e ->
              failures :=
                Printf.sprintf "client %d req %d: %s" ci r e :: !failures
          | Ok resp when not (P.response_ok resp) ->
              failures :=
                Printf.sprintf "client %d req %d: %s" ci r (error_code resp)
                :: !failures
          | Ok resp -> (
              match J.member "result" resp with
              | None ->
                  failures :=
                    Printf.sprintf "client %d req %d: no result" ci r
                    :: !failures
              | Some result ->
                  if
                    J.to_string result <> List.assoc case.W.Racey.name expected
                  then
                    failures :=
                      Printf.sprintf "client %d req %d: result diverged on %s"
                        ci r case.W.Racey.name
                      :: !failures)
        done;
        (List.rev !failures, !retries)
      in
      let domains = List.init clients (fun ci -> Domain.spawn (client_body ci)) in
      let results = List.map Domain.join domains in
      let failures = List.concat_map fst results in
      let retries = List.fold_left (fun acc (_, r) -> acc + r) 0 results in
      check (Alcotest.list Alcotest.string) "every request completed" []
        failures;
      checkb "the chaos plan actually fired" true (retries > 0);
      with_client srv (fun cl ->
          let stats =
            Option.value ~default:J.Null
              (J.member "stats" (ok_exn "stats" (C.stats cl)))
          in
          let int_at path =
            match
              Option.bind
                (List.fold_left
                   (fun j k -> Option.bind j (J.member k))
                   (Some stats) path)
                J.to_int
            with
            | Some n -> n
            | None -> Alcotest.failf "stats missing %s" (String.concat "." path)
          in
          let crashes = int_at [ "supervision"; "crashes" ] in
          let restarts = int_at [ "supervision"; "restarts" ] in
          checkb "crashes happened" true (crashes > 0);
          (* Every injected kill fires once per 8 executions; executions
             are the 200 requests plus their retries.  Restarts may not
             exceed the injected crash budget (no restart storms of our
             own making). *)
          let execs = total + retries in
          checkb
            (Printf.sprintf "restarts bounded (%d restarts, %d crashes, %d \
                             executions)"
               restarts crashes execs)
            true
            (restarts <= (execs / 8) + 2);
          check Alcotest.int "server counted the retried requests"
            retries
            (int_at [ "requests"; "retries" ]);
          checkb "bundles sealed for the crashes" true
            (int_at [ "supervision"; "bundles_sealed" ] > 0)))

(* A wedged worker (ignores all cooperative cancellation) trips the
   watchdog, is SIGKILLed, and the request is answered with a
   structured error naming the watchdog. *)
let test_watchdog_kills_wedged_worker () =
  with_server ~workers:1 ~watchdog_ms:400 ~chaos_plan:"wedge:2" (fun srv ->
      let case = List.hd (identity_cases ()) in
      with_client srv (fun cl ->
          let program = Arde.Pretty.program_to_string case.W.Racey.program in
          let run () =
            ok_exn "run"
              (C.run cl ~program ~mode:Arde.Config.Helgrind_lib
                 ~options:quick_options ())
          in
          let first = run () in
          checkb "first request fine" true (P.response_ok first);
          let second = run () in
          checks "wedged request -> structured error" "worker_crashed"
            (error_code second);
          (match P.response_error second with
          | Some (_, msg) ->
              checkb
                (Printf.sprintf "reason names the watchdog: %s" msg)
                true
                (Astring.String.is_infix ~affix:"watchdog" msg)
          | None -> Alcotest.fail "no error payload");
          await_stats cl ~what:"watchdog kill counted"
            (fun ~int_at ~bool_at:_ ->
              int_at [ "supervision"; "watchdog_kills" ] = Some 1)));
  ()

(* A watchdog kill disarms the slot at once: until [reap] collects the
   corpse the slot must not come due again (a second SIGKILL and a
   second count on every loop pass), nor pin the loop's select timeout
   to its floor. *)
let test_watchdog_kill_disarms_slot () =
  let module Sup = Arde_server.Supervisor in
  let root = fresh_socket () ^ ".spool" in
  let spool = ok_exn "spool" (Arde_server.Spool.create ~root) in
  let knobs =
    {
      Sup.k_exec = Sys.executable_name;
      k_spool_root = root;
      k_jobs = 1;
      k_max_frame = P.default_max_frame;
      k_chaos_plan = "";
      k_store_dir = "";
      k_store_max_mb = 1;
      k_restart_backoff_ms = 10;
      k_restart_backoff_max_ms = 10;
      k_breaker_threshold = 5;
      k_breaker_window_s = 1.;
      k_log = ignore;
    }
  in
  let sup = Sup.create ~knobs ~spool ~workers:1 in
  let kills () =
    Option.bind (J.member "watchdog_kills" (Sup.stats_json sup)) J.to_int
  in
  Fun.protect
    ~finally:(fun () ->
      Sup.shutdown sup ~grace:1.0;
      rm_rf root)
    (fun () ->
      let now = Arde_server.Util.now () in
      Sup.note_dispatch sup 0 ~kill_by:(now -. 1.);
      check (Alcotest.list Alcotest.int) "overdue slot" [ 0 ]
        (Sup.due_watchdog sup ~now);
      Sup.kill_watchdog sup 0;
      check (Alcotest.list Alcotest.int) "not due again before the reap" []
        (Sup.due_watchdog sup ~now);
      checkb "no timer left armed" true (Sup.next_timer sup = infinity);
      let rec reap tries =
        match Sup.reap sup ~now:(Arde_server.Util.now ()) ~draining:true with
        | [ d ] -> d
        | [] when tries > 0 ->
            Unix.sleepf 0.01;
            reap (tries - 1)
        | _ -> Alcotest.fail "killed worker was never reaped"
      in
      checks "death reason" "watchdog" (reap 500).Sup.d_reason;
      check (Alcotest.option Alcotest.int) "counted once" (Some 1) (kills ()))

(* A worker that dies mid-reply (torn frame) must be treated as a
   crash, not parsed as a response. *)
let test_torn_reply_frame () =
  with_server ~workers:1 ~chaos_plan:"torn:2" (fun srv ->
      let case = List.hd (identity_cases ()) in
      with_client srv (fun cl ->
          let program = Arde.Pretty.program_to_string case.W.Racey.program in
          let run () =
            ok_exn "run"
              (C.run cl ~program ~mode:Arde.Config.Helgrind_lib
                 ~options:quick_options ())
          in
          checkb "first request fine" true (P.response_ok (run ()));
          let second = run () in
          checks "torn reply -> structured error" "worker_crashed"
            (error_code second);
          match P.response_error second with
          | Some (_, msg) ->
              checkb
                (Printf.sprintf "reason names the torn stream: %s" msg)
                true
                (Astring.String.is_infix ~affix:"torn" msg)
          | None -> Alcotest.fail "no error payload"))

(* Spool writes are best-effort: a full disk (injected ENOSPC) must not
   fail the request, only mark it in the stats. *)
let test_spool_enospc_not_fatal () =
  with_server ~workers:1 ~chaos_plan:"spool:2" (fun srv ->
      let case = List.hd (identity_cases ()) in
      with_client srv (fun cl ->
          let program = Arde.Pretty.program_to_string case.W.Racey.program in
          let run () =
            ok_exn "run"
              (C.run cl ~program ~mode:Arde.Config.Helgrind_lib
                 ~options:quick_options ())
          in
          checkb "first request fine" true (P.response_ok (run ()));
          checkb "unjournaled request still served" true
            (P.response_ok (run ()));
          await_stats cl ~what:"spool error counted"
            (fun ~int_at ~bool_at:_ ->
              int_at [ "requests"; "spool_errors" ] = Some 1)))

(* Crash-looping every single request trips the restart-storm circuit
   breaker: the slot is marked broken and further requests are refused
   immediately with a structured error instead of queueing behind a
   doomed restart loop. *)
let test_restart_storm_circuit_breaker () =
  with_server ~workers:1 ~chaos_plan:"kill:1" ~breaker_threshold:3
    ~breaker_window_s:30. (fun srv ->
      let case = List.hd (identity_cases ()) in
      let program = Arde.Pretty.program_to_string case.W.Racey.program in
      let crash_once () =
        with_client srv (fun cl ->
            let resp =
              ok_exn "run"
                (C.run cl ~program ~mode:Arde.Config.Helgrind_lib
                   ~options:quick_options ())
            in
            checks "every request crashes" "worker_crashed" (error_code resp))
      in
      crash_once ();
      crash_once ();
      crash_once ();
      with_client srv (fun cl ->
          await_stats cl ~what:"circuit open"
            (fun ~int_at ~bool_at:_ ->
              int_at [ "supervision"; "breaker_open" ] = Some 1);
          let resp =
            ok_exn "run against a broken fleet"
              (C.run cl ~program ~mode:Arde.Config.Helgrind_lib
                 ~options:quick_options ())
          in
          checks "refused while broken" "worker_crashed" (error_code resp);
          match P.response_error resp with
          | Some (_, msg) ->
              checkb
                (Printf.sprintf "refusal names the circuit: %s" msg)
                true
                (Astring.String.is_infix ~affix:"circuit" msg)
          | None -> Alcotest.fail "no error payload"))

(* A request whose deadline elapses while still queued is cancelled
   without touching a worker, releases its admission slot, and is
   answered with [deadline_expired]. *)
let test_deadline_expires_in_queue () =
  with_server ~workers:1 (fun srv ->
      with_client srv (fun blocker ->
          ignore
            (ok_exn "send slow"
               (C.send_frame blocker
                  (J.to_string
                     (P.run_request_json ~id:(J.Int 0) ~program:busy_tir
                        ~mode:Arde.Config.Helgrind_lib
                        ~options:
                          (Arde.Options.make ~seeds:[ 1 ] ~fuel:20_000_000 ())
                        ()))));
          with_client srv (fun cl ->
              await_stats cl ~what:"blocker in flight"
                (fun ~int_at ~bool_at:_ ->
                  int_at [ "queue"; "in_flight" ] = Some 1);
              let resp =
                ok_exn "queued run with a tight deadline"
                  (C.run cl ~deadline_ms:100 ~program:busy_tir
                     ~mode:Arde.Config.Helgrind_lib ~options:quick_options ())
              in
              checks "expired in the queue" "deadline_expired"
                (error_code resp);
              await_stats cl ~what:"cancellation released the slot"
                (fun ~int_at ~bool_at:_ ->
                  int_at [ "queue"; "cancelled" ] = Some 1
                  && int_at [ "queue"; "depth" ] = Some 0));
          let resp = ok_exn "blocker completes" (C.recv blocker) in
          checkb "blocker unaffected" true (P.response_ok resp)))

(* SIGTERM landing while a cold program (never parsed by any worker) is
   queued: the drain must still execute it to completion. *)
let test_drain_races_cold_fill () =
  let srv = start ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> rm_rf srv.spool)
    (fun () ->
      let case = List.hd (List.rev (identity_cases ())) in
      let cl = connect srv in
      ignore
        (ok_exn "send cold request"
           (C.send_frame cl
              (J.to_string
                 (P.run_request_json ~id:(J.Int 1)
                    ~program:
                      (Arde.Pretty.program_to_string case.W.Racey.program)
                    ~mode:Arde.Config.Helgrind_lib ~options:quick_options ()))));
      (* Drain as soon as the request is admitted — typically before the
         cold worker has even said hello, so the request races the cold
         start as well as the cache fill.  (Drain before admission would
         be a plain structured refusal, which is not this test.) *)
      with_client srv (fun probe ->
          await_stats probe ~what:"cold request admitted"
            (fun ~int_at ~bool_at:_ ->
              match
                (int_at [ "queue"; "depth" ], int_at [ "queue"; "in_flight" ])
              with
              | Some d, Some f -> d + f >= 1
              | _ -> false));
      S.initiate_drain srv.t;
      let resp = ok_exn "cold response under drain" (C.recv cl) in
      checkb "cold request completed during drain" true (P.response_ok resp);
      checks "byte-identical to the direct driver"
        (J.to_string
           (Arde.Driver.result_to_json
              (Arde.detect
                 ~ctx:(Arde.Driver.ctx ~options:quick_options ())
                 ~mode:Arde.Config.Helgrind_lib
                 (Arde.Input.Program case.W.Racey.program))))
        (J.to_string
           (Option.value ~default:J.Null (J.member "result" resp)));
      C.close cl;
      Domain.join srv.runner;
      checkb "socket removed" false (Sys.file_exists srv.path))

(* A client that vanishes mid-request must cost nothing but the wasted
   work: no crash, no wedged slot, and the next client is served. *)
let test_client_disconnect_mid_response () =
  with_server ~workers:1 (fun srv ->
      let case = List.hd (identity_cases ()) in
      (* In flight: the worker is executing when the client dies. *)
      let doomed = connect srv in
      ignore
        (ok_exn "send"
           (C.send_frame doomed
              (J.to_string
                 (P.run_request_json ~id:(J.Int 1) ~program:busy_tir
                    ~mode:Arde.Config.Helgrind_lib
                    ~options:(Arde.Options.make ~seeds:[ 1 ] ~fuel:2_000_000 ())
                    ()))));
      with_client srv (fun cl ->
          await_stats cl ~what:"doomed request in flight"
            (fun ~int_at ~bool_at:_ ->
              int_at [ "queue"; "in_flight" ] = Some 1);
          C.close doomed;
          (* Still queued when the client dies: dropped at dispatch. *)
          let doomed2 = connect srv in
          ignore
            (ok_exn "send queued"
               (C.send_frame doomed2
                  (J.to_string
                     (P.run_request_json ~id:(J.Int 2) ~program:busy_tir
                        ~mode:Arde.Config.Helgrind_lib ~options:quick_options
                        ()))));
          C.close doomed2;
          let resp =
            ok_exn "next client"
              (C.run cl
                 ~program:(Arde.Pretty.program_to_string case.W.Racey.program)
                 ~mode:Arde.Config.Helgrind_lib ~options:quick_options ())
          in
          checkb "server healthy after disconnects" true (P.response_ok resp);
          await_stats cl ~what:"no crashes from disconnects"
            (fun ~int_at ~bool_at:_ ->
              int_at [ "supervision"; "crashes" ] = Some 0
              && int_at [ "queue"; "in_flight" ] = Some 0)))

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Persistent bundle store                                             *)

module St = Arde_server.Store
module AC = Arde.Analysis_cache

let store_counter = ref 0

let fresh_store_dir () =
  incr store_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "arde-test-store-%d-%d" (Unix.getpid ()) !store_counter)

let with_store_dir f =
  let dir = fresh_store_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A spin-mode prepared bundle for one catalog case — exercises the
   whole entry body including the machine's spin cache. *)
let store_mode = Arde.Config.Nolib_spin 2
let store_style = Arde.Lower.Realistic

let store_case () =
  List.find
    (fun c -> c.W.Racey.threads <= 4)
    (W.Racey.all ())

let store_prepared ~digest =
  AC.prepare ~digest ~style:store_style ~count_callees:false store_mode
    (store_case ()).W.Racey.program

let store_key ~digest =
  {
    AC.sk_digest = digest;
    sk_mode = store_mode;
    sk_style = store_style;
    sk_count_callees = false;
  }

let store_path st ~digest =
  St.entry_path st ~digest
    ~mode_id:(Arde.Config.mode_id store_mode)
    ~style:store_style ~count_callees:false

let test_store_roundtrip () =
  with_store_dir @@ fun dir ->
  let st = ok_exn "store create" (St.create ~dir ()) in
  let hooks = St.analysis_store st in
  let p = store_prepared ~digest:"rt" in
  let enc q =
    St.encode ~digest:"rt"
      ~mode_id:(Arde.Config.mode_id store_mode)
      ~style:store_style ~count_callees:false q
  in
  (* Deterministic bytes are what make concurrent worker write-backs
     benign (last writer wins with identical content). *)
  checks "encoding is deterministic" (enc p) (enc p);
  checkb "miss before any save" true (hooks.AC.store_load (store_key ~digest:"rt") = None);
  hooks.AC.store_save (store_key ~digest:"rt") p;
  (match hooks.AC.store_load (store_key ~digest:"rt") with
  | None -> Alcotest.fail "expected a disk hit after save"
  | Some q ->
      checks "program text survives the disk"
        (Arde.Pretty.program_to_string p.AC.p_program)
        (Arde.Pretty.program_to_string q.AC.p_program);
      checkb "cv mutexes survive" true (p.AC.p_cv_mutexes = q.AC.p_cv_mutexes);
      checkb "inferred locks survive" true
        (p.AC.p_inferred_locks = q.AC.p_inferred_locks);
      (* Round-trip stability: a reloaded bundle re-encodes to the same
         bytes, which covers the spin-cache arrays without reaching into
         machine internals. *)
      checks "encode(decode(x)) = encode(x)" (enc p) (enc q));
  let s = St.stats st in
  check Alcotest.int "one save" 1 s.St.st_saves;
  check Alcotest.int "one hit" 1 s.St.st_hits;
  check Alcotest.int "one miss" 1 s.St.st_misses;
  check Alcotest.int "nothing corrupt" 0 s.St.st_corrupt

let test_store_corruption_recovery () =
  with_store_dir @@ fun dir ->
  let st = ok_exn "store create" (St.create ~dir ()) in
  let hooks = St.analysis_store st in
  let key = store_key ~digest:"corrupt" in
  let p = store_prepared ~digest:"corrupt" in
  let path = store_path st ~digest:"corrupt" in
  let mangle f =
    hooks.AC.store_save key p;
    let bytes = ok_exn "read entry" (Arde_server.Util.read_file path) in
    let b = Bytes.of_string bytes in
    f b;
    (match hooks.AC.store_load key with
    | None -> ()
    | Some _ -> Alcotest.fail "loaded a mangled entry");
    checkb "mangled entry deleted" false (Sys.file_exists path)
  in
  (* Truncation. *)
  mangle (fun b ->
      let oc = open_out_bin path in
      output_bytes oc (Bytes.sub b 0 (Bytes.length b / 2));
      close_out oc);
  (* A flipped body byte must fail the checksum. *)
  mangle (fun b ->
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc);
  (* A future format version is recomputed, not trusted. *)
  mangle (fun b ->
      Bytes.set b 8 '\x63';
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc);
  check Alcotest.int "every mangling recovered" 3 (St.stats st).St.st_corrupt;
  (* The slot is usable again afterwards. *)
  hooks.AC.store_save key p;
  checkb "save after recovery works" true (hooks.AC.store_load key <> None)

let test_store_write_failure_degrades () =
  with_store_dir @@ fun dir ->
  let st = ok_exn "store create" (St.create ~dir ()) in
  let hooks = St.analysis_store st in
  let p = store_prepared ~digest:"gone" in
  (* The directory vanishing mid-flight is the portable stand-in for
     ENOSPC: every write failure takes the same degrade path. *)
  rm_rf dir;
  hooks.AC.store_save (store_key ~digest:"gone") p;
  check Alcotest.int "write failure counted" 1 (St.stats st).St.st_errors;
  checkb "lookup is a plain miss" true
    (hooks.AC.store_load (store_key ~digest:"gone") = None);
  check Alcotest.int "no phantom save" 0 (St.stats st).St.st_saves

let test_store_lru_bound () =
  with_store_dir @@ fun dir ->
  let st = ok_exn "store create" (St.create ~dir ()) in
  let hooks = St.analysis_store st in
  let digests = [ "lru-a"; "lru-b"; "lru-c"; "lru-d" ] in
  List.iter
    (fun d ->
      hooks.AC.store_save (store_key ~digest:d) (store_prepared ~digest:d);
      (* Distinct mtimes order the eviction scan deterministically. *)
      Unix.sleepf 0.02)
    digests;
  let _, bytes = St.usage st in
  let per_entry = bytes / List.length digests in
  (* Freshen the oldest entry: LRU must now prefer evicting lru-b. *)
  checkb "touch hit" true (hooks.AC.store_load (store_key ~digest:"lru-a") <> None);
  Unix.sleepf 0.02;
  let evicted = St.gc st ~max_bytes:(per_entry * 2) in
  check Alcotest.int "evicted down to bound" 2 evicted;
  let n, bytes' = St.usage st in
  check Alcotest.int "two entries remain" 2 n;
  checkb "bound respected" true (bytes' <= per_entry * 2);
  checkb "recently used entry survived" true
    (Sys.file_exists (store_path st ~digest:"lru-a"));
  checkb "most recent entry survived" true
    (Sys.file_exists (store_path st ~digest:"lru-d"));
  checkb "LRU victims were the stale ones" false
    (Sys.file_exists (store_path st ~digest:"lru-b")
    || Sys.file_exists (store_path st ~digest:"lru-c"))

(* Satellite guarantee: within one process, concurrent prepares of a
   cold key compute (and write back) exactly once; everyone else waits
   on the single flight and shares the published bundle. *)
let test_store_single_flight () =
  let saves = Atomic.make 0 in
  let loads = Atomic.make 0 in
  AC.set_store
    (Some
       {
         AC.store_load =
           (fun _ ->
             Atomic.incr loads;
             (* A slow miss widens the window concurrent callers race
                into. *)
             Unix.sleepf 0.02;
             None);
         AC.store_save = (fun _ _ -> Atomic.incr saves);
       });
  Fun.protect ~finally:(fun () -> AC.set_store None) @@ fun () ->
  AC.clear ();
  let program = (store_case ()).W.Racey.program in
  let ds =
    List.init 6 (fun _ ->
        Domain.spawn (fun () ->
            AC.prepare ~digest:"single-flight" ~style:store_style
              ~count_callees:false store_mode program))
  in
  let ps = List.map Domain.join ds in
  check Alcotest.int "exactly one store lookup" 1 (Atomic.get loads);
  check Alcotest.int "exactly one write-back" 1 (Atomic.get saves);
  match ps with
  | first :: rest ->
      List.iter
        (fun p ->
          checkb "all callers share one compiled bundle" true
            (p.AC.p_compiled == first.AC.p_compiled))
        rest
  | [] -> Alcotest.fail "no domains ran"

(* Sibling workers racing a write-back: both encode byte-identically, so
   last-writer-wins leaves exactly the bytes either would have written. *)
let test_store_cross_worker_write_back () =
  with_store_dir @@ fun dir ->
  let st1 = ok_exn "store 1" (St.create ~dir ()) in
  let st2 = ok_exn "store 2" (St.create ~dir ()) in
  let p1 = store_prepared ~digest:"xw" in
  AC.clear ();
  let p2 = store_prepared ~digest:"xw" in
  checkb "independent computes" true (p1.AC.p_compiled != p2.AC.p_compiled);
  let enc p =
    St.encode ~digest:"xw"
      ~mode_id:(Arde.Config.mode_id store_mode)
      ~style:store_style ~count_callees:false p
  in
  checks "independent computes encode identically" (enc p1) (enc p2);
  (St.analysis_store st1).AC.store_save (store_key ~digest:"xw") p1;
  (St.analysis_store st2).AC.store_save (store_key ~digest:"xw") p2;
  let on_disk =
    ok_exn "read entry"
      (Arde_server.Util.read_file (store_path st1 ~digest:"xw"))
  in
  checks "last writer left identical bytes" (enc p1) on_disk

(* The tentpole end to end: a daemon is killed and a fresh one on the
   same store answers previously-seen programs from disk, byte-identical
   to the cold compute. *)
let test_store_restart_warm_identity () =
  with_store_dir @@ fun store_dir ->
  let case = List.hd (identity_cases ()) in
  let mode = Arde.Config.Nolib_spin 7 in
  let cold =
    with_server ~store_dir ~workers:1 (fun srv ->
        with_client srv (fun cl -> served_result_string cl case mode))
  in
  (* [stop] tore the whole daemon down (workers included); only the
     store directory carries state across. *)
  with_server ~store_dir ~workers:1 (fun srv ->
      with_client srv (fun cl ->
          let resp =
            ok_exn "restart-warm run"
              (C.run cl
                 ~program:(Arde.Pretty.program_to_string case.W.Racey.program)
                 ~mode ~options:identity_options ())
          in
          checkb "restart-warm run ok" true (P.response_ok resp);
          checks "restart-warm result is byte-identical to cold"
            cold
            (J.to_string
               (Option.value ~default:J.Null (J.member "result" resp)));
          (* The response's own store delta proves the bundle came off
             disk, not from a recompute. *)
          let store_int k =
            Option.bind
              (Option.bind (J.member "store" resp) (J.member k))
              J.to_int
          in
          check (Alcotest.option Alcotest.int) "one disk hit" (Some 1)
            (store_int "disk_hits");
          check (Alcotest.option Alcotest.int) "no save on the warm path"
            (Some 0) (store_int "saves")))

(* ------------------------------------------------------------------ *)
(* TCP listener                                                        *)

let test_parse_tcp_endpoint () =
  let ok s = ok_exn s (C.parse_tcp_endpoint s) in
  checkb "host:port" true (ok "example:4817" = C.Tcp ("example", 4817));
  checkb "bare port" true (ok "4817" = C.Tcp ("", 4817));
  checkb "colon port" true (ok ":4817" = C.Tcp ("", 4817));
  List.iter
    (fun s ->
      match C.parse_tcp_endpoint s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "host:"; "host:0"; "host:notaport"; "host:65536" ]

let test_tcp_end_to_end () =
  let case = List.hd (identity_cases ()) in
  let mode = Arde.Config.Helgrind_lib in
  with_server ~tcp:("127.0.0.1", 0) (fun srv ->
      let host, port =
        match S.tcp_endpoint srv.t with
        | Some ep -> ep
        | None -> Alcotest.fail "server bound no TCP endpoint"
      in
      checkb "ephemeral port was resolved" true (port > 0);
      let unix_result =
        with_client srv (fun cl -> served_result_string cl case mode)
      in
      let c =
        ok_exn "tcp connect" (C.connect ~endpoint:(C.Tcp (host, port)) ())
      in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          checkb "ping over tcp" true (P.response_ok (ok_exn "ping" (C.ping c)));
          checks "tcp matches the unix socket" unix_result
            (served_result_string c case mode)))

(* Frames of the retired binary wire — anything opening with its 0xB7
   magic byte, the old hello handshake included — are untrusted bytes
   like any other non-JSON payload: a structured bad_frame, after which
   the connection and both listeners keep serving. *)
let test_retired_binary_frames_fail_closed () =
  let retired =
    [ ("hello", "\xB7\x01\x01"); ("ping", "\xB7\x01\x06\x00"); ("magic", "\xB7") ]
  in
  List.iter
    (fun (what, payload) ->
      match P.parse_request payload with
      | Error (_, P.Bad_frame, _) -> ()
      | _ -> Alcotest.failf "retired %s frame is not a bad_frame" what)
    retired;
  with_server ~tcp:("127.0.0.1", 0) (fun srv ->
      let host, port =
        match S.tcp_endpoint srv.t with
        | Some ep -> ep
        | None -> Alcotest.fail "server bound no TCP endpoint"
      in
      let probe label c =
        List.iter
          (fun (what, payload) ->
            ignore (ok_exn "send" (C.send_frame c payload));
            checks
              (Printf.sprintf "%s: retired %s frame" label what)
              "bad_frame"
              (error_code (ok_exn "recv" (C.recv c))))
          retired;
        let resp =
          ok_exn "run"
            (C.run c ~program:busy_tir ~mode:Arde.Config.Helgrind_lib
               ~options:(Arde.Options.make ~seeds:[ 1 ] ~fuel:100 ())
               ())
        in
        checkb (label ^ ": still serving") true (P.response_ok resp)
      in
      with_client srv (probe "unix");
      let c =
        ok_exn "tcp connect" (C.connect ~endpoint:(C.Tcp (host, port)) ())
      in
      Fun.protect ~finally:(fun () -> C.close c) (fun () -> probe "tcp" c);
      with_client srv (fun cl ->
          await_stats cl ~what:"bad frames counted"
            (fun ~int_at ~bool_at:_ ->
              int_at [ "requests"; "bad_frame" ]
              = Some (2 * List.length retired))))

(* Test reports print a case's index next to its name, so cases keep
   their positions: "8 concurrent clients" stays at 14 and "crash storm"
   at 26. *)
let suite =
  [
    Alcotest.test_case "frame codec reassembles any chunking" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "frame codec splits pipelined frames" `Quick
      test_frame_pipelined;
    Alcotest.test_case "frame codec rejects oversized frames" `Quick
      test_frame_too_large;
    Alcotest.test_case "run requests round-trip the option surface" `Quick
      test_request_roundtrip;
    Alcotest.test_case "malformed requests map to structured errors" `Quick
      test_request_errors;
    Alcotest.test_case "retired binary frames fail closed on both listeners"
      `Quick test_retired_binary_frames_fail_closed;
    Alcotest.test_case "mode wire form round-trips" `Quick
      test_mode_id_roundtrip;
    Alcotest.test_case "tcp endpoints parse" `Quick test_parse_tcp_endpoint;
    Alcotest.test_case "store entries round-trip deterministically" `Quick
      test_store_roundtrip;
    Alcotest.test_case "scheduler admission control and drain" `Quick
      test_scheduler_admission;
    Alcotest.test_case "served results are byte-identical to the driver"
      `Quick test_byte_identity;
    Alcotest.test_case "tcp listener is byte-identical on both transports"
      `Quick test_tcp_end_to_end;
    Alcotest.test_case "record-mode run replays identically on the farm"
      `Quick test_record_then_server_replay;
    Alcotest.test_case "a watchdog kill disarms its slot until the reap"
      `Quick test_watchdog_kill_disarms_slot;
    Alcotest.test_case "8 concurrent clients, mixed valid and invalid"
      `Quick test_concurrent_clients;
    Alcotest.test_case "malformed frames against a live server" `Quick
      test_malformed_frames;
    Alcotest.test_case "admission control bounces past max_pending" `Quick
      test_admission_control;
    Alcotest.test_case "deadlines cancel remaining seeds cooperatively"
      `Quick test_deadline_cancels_remaining_seeds;
    Alcotest.test_case "stats report outcomes, queue and caches" `Quick
      test_stats;
    Alcotest.test_case "SIGTERM drains gracefully" `Quick test_sigterm_drain;
    Alcotest.test_case "refused and cancelled requests release capacity"
      `Quick test_scheduler_capacity_recovery;
    Alcotest.test_case "chaos plans parse, print and fire deterministically"
      `Quick test_chaos_plan_parse;
    Alcotest.test_case "outbuf flushes in order and reports dead peers"
      `Quick test_outbuf_flush;
    Alcotest.test_case "atomic file writes replace, never tear" `Quick
      test_write_file_atomic;
    Alcotest.test_case "retry schedule is bounded, jittered, deterministic"
      `Quick test_retry_schedule;
    Alcotest.test_case "worker crash -> structured error + replayable bundle"
      `Quick test_worker_crash_structured;
    Alcotest.test_case "crash storm: 200 requests, zero hung clients" `Quick
      test_crash_storm;
    Alcotest.test_case "watchdog SIGKILLs wedged workers" `Quick
      test_watchdog_kills_wedged_worker;
    Alcotest.test_case "torn reply frames are crashes, not responses" `Quick
      test_torn_reply_frame;
    Alcotest.test_case "spool ENOSPC is not fatal to the request" `Quick
      test_spool_enospc_not_fatal;
    Alcotest.test_case "restart storms trip the circuit breaker" `Quick
      test_restart_storm_circuit_breaker;
    Alcotest.test_case "deadlines expire queued requests in place" `Quick
      test_deadline_expires_in_queue;
    Alcotest.test_case "drain races a cold-cache fill" `Quick
      test_drain_races_cold_fill;
    Alcotest.test_case "client disconnect mid-response is survivable" `Quick
      test_client_disconnect_mid_response;
    Alcotest.test_case "corrupt store entries are recomputed, never fatal"
      `Quick test_store_corruption_recovery;
    Alcotest.test_case "store write failures degrade to compute-only" `Quick
      test_store_write_failure_degrades;
    Alcotest.test_case "store eviction is LRU and respects the bound" `Quick
      test_store_lru_bound;
    Alcotest.test_case "concurrent prepares single-flight the compute" `Quick
      test_store_single_flight;
    Alcotest.test_case "racing write-backs leave identical bytes" `Quick
      test_store_cross_worker_write_back;
    Alcotest.test_case "restarted daemon serves byte-identical results warm"
      `Quick test_store_restart_warm_identity;
  ]
