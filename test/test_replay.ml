(* Record/replay: codec round-trip laws, structured rejection of hostile
   bytes, and the subsystem's correctness oracle — replaying a recording
   yields results byte-identical to the live run that produced it, across
   workloads, modes, seeds, chaos injection and cancellation. *)

module C = Arde.Trace_codec
module D = Arde.Driver
module J = Arde.Json
module W = Arde_workloads
module Prng = Arde_util.Prng

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let law ?(count = 60) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name (QCheck2.Gen.int_range 0 100_000) f)

(* -- base64 -------------------------------------------------------- *)

let prop_base64_roundtrip =
  law "base64 decode ∘ encode = id" (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int rng 80 in
      let s = String.init n (fun _ -> Char.chr (Prng.int rng 256)) in
      Arde.Base64.decode (Arde.Base64.encode s) = Ok s)

let test_base64_strict () =
  let reject what s =
    match Arde.Base64.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s %S" what s
  in
  checks "known vector" "Zm9vYmE=" (Arde.Base64.encode "fooba");
  reject "bad length" "A";
  reject "bad length" "AAAAA";
  reject "invalid character" "AAA!";
  reject "padding in the middle" "AA==AAAA";
  reject "all padding" "====";
  reject "misplaced padding" "A=AA";
  (* non-canonical: bits hidden under the '=' must be zero *)
  reject "dirty padding bits" "AB==";
  reject "dirty padding bits" "AAB=";
  checkb "canonical two-pad accepted" true (Arde.Base64.decode "AQ==" = Ok "\x01")

(* -- random event streams ------------------------------------------ *)

let pick rng xs = List.nth xs (Prng.int rng (List.length xs))

let gen_loc rng =
  {
    Arde.Types.lfunc = pick rng [ "main"; "w"; "a_rather_long_function_name" ];
    lblk = pick rng [ "e"; "loop"; "out"; "" ];
    lidx = Prng.int rng 40 - 8;
  }

let gen_base rng = pick rng [ "x"; "flag"; "m"; "queue"; "" ]

let gen_event rng : Arde.Event.t =
  let tid = Prng.int rng 5 in
  let base = gen_base rng in
  let idx = Prng.int rng 16 - 4 in
  let loc = gen_loc rng in
  match Prng.int rng 19 with
  | 0 | 1 ->
      let spin =
        List.init (Prng.int rng 3) (fun _ ->
            (Prng.int rng 20, Prng.int rng 1000 - 100))
      in
      Arde.Event.Read
        {
          tid;
          base;
          base_id = Prng.int rng 20 - 1;
          idx;
          value = Prng.int rng 10_000 - 5_000;
          loc;
          kind = (if Prng.bool rng then Arde.Event.Plain else Arde.Event.Atomic);
          spin;
        }
  | 2 | 3 ->
      Arde.Event.Write
        {
          tid;
          base;
          base_id = Prng.int rng 20 - 1;
          idx;
          value = Prng.int rng 10_000 - 5_000;
          loc;
          kind = (if Prng.bool rng then Arde.Event.Plain else Arde.Event.Atomic);
        }
  | 4 -> Arde.Event.Lock_acq { tid; base; idx; loc }
  | 5 -> Arde.Event.Lock_rel { tid; base; idx; loc }
  | 6 ->
      Arde.Event.Cv_signal
        {
          tid;
          base;
          idx;
          loc;
          broadcast = Prng.bool rng;
          had_waiter = Prng.bool rng;
        }
  | 7 -> Arde.Event.Cv_wait_begin { tid; base; idx; loc }
  | 8 -> Arde.Event.Cv_wait_return { tid; base; idx; loc }
  | 9 ->
      Arde.Event.Barrier_arrive
        { tid; base; idx; generation = Prng.int rng 8 - 1; loc }
  | 10 ->
      Arde.Event.Barrier_pass
        { tid; base; idx; generation = Prng.int rng 8 - 1; loc }
  | 11 -> Arde.Event.Sem_post_ev { tid; base; idx; loc }
  | 12 -> Arde.Event.Sem_acquire { tid; base; idx; loc }
  | 13 -> Arde.Event.Spawn_ev { parent = tid; child = Prng.int rng 6; loc }
  | 14 -> Arde.Event.Join_return { tid; target = Prng.int rng 6; loc }
  | 15 -> Arde.Event.Thread_start { tid }
  | 16 -> Arde.Event.Thread_exit { tid }
  | 17 ->
      Arde.Event.Spin_enter
        { tid; loop_id = Prng.int rng 30; ctx = Prng.int rng 500 }
  | _ ->
      Arde.Event.Spin_exit
        { tid; loop_id = Prng.int rng 30; ctx = Prng.int rng 500 }

let gen_outcome rng : C.outcome =
  match Prng.int rng 7 with
  | 0 -> C.Finished
  | 1 -> C.Deadlock (List.init (Prng.int rng 4) (fun _ -> Prng.int rng 8))
  | 2 -> C.Fuel_exhausted
  | 3 ->
      C.Livelock
        (List.init (Prng.int rng 3) (fun _ ->
             {
               C.w_tid = Prng.int rng 8;
               w_loop = Prng.int rng 30;
               w_loc = gen_loc rng;
               w_bases = List.init (Prng.int rng 3) (fun _ -> gen_base rng);
             }))
  | 4 ->
      C.Fault
        { ftid = Prng.int rng 8; floc = gen_loc rng; msg = "boom: injected" }
  | 5 ->
      C.Crashed
        ( (if Prng.bool rng then Some (gen_loc rng) else None),
          pick rng [ "detector bug"; "" ] )
  | _ -> C.Cancelled

let gen_trailer rng =
  {
    C.t_outcome = gen_outcome rng;
    t_steps = Prng.int rng 100_000;
    t_check_failures =
      List.init (Prng.int rng 3) (fun _ -> (gen_loc rng, "check failed"));
  }

let gen_section rng ~seed:s_seed =
  let trailer = gen_trailer rng in
  match trailer.C.t_outcome with
  | C.Cancelled -> C.cancelled_section ~seed:s_seed
  | _ ->
      let events = List.init (Prng.int rng 150) (fun _ -> gen_event rng) in
      let s_events, s_hash = C.encode_events events in
      {
        C.s_seed;
        s_n_events = List.length events;
        s_events;
        s_hash;
        s_trailer = trailer;
      }

let gen_header rng =
  {
    C.h_digest = pick rng [ String.make 32 'a'; "00ff00ff" ];
    h_mode = pick rng [ "lib+spin:7"; "drd"; "" ];
    h_options = pick rng [ "{}"; {|{"seeds":[1,2]}|} ];
    h_source = pick rng [ ""; "fuzz"; "a workload with spaces" ];
    h_program = pick rng [ ""; "entry = main\n"; String.make 5_000 'p' ];
  }

(* -- codec round-trip laws ----------------------------------------- *)

let prop_events_roundtrip =
  law "decode ∘ encode = id on random event streams" (fun seed ->
      let rng = Prng.create seed in
      let events = List.init (Prng.int rng 250) (fun _ -> gen_event rng) in
      let s_events, s_hash = C.encode_events events in
      let section =
        {
          C.s_seed = 1;
          s_n_events = List.length events;
          s_events;
          s_hash;
          s_trailer =
            { C.t_outcome = C.Finished; t_steps = 0; t_check_failures = [] };
        }
      in
      match C.decode_events_list section with
      | Ok events' -> events' = events
      | Error _ -> false)

let prop_file_roundtrip =
  law ~count:40 "read_sections ∘ assemble = id on random traces" (fun seed ->
      let rng = Prng.create seed in
      let header = gen_header rng in
      let sections =
        List.init (Prng.int rng 5) (fun i -> gen_section rng ~seed:(i + 1))
      in
      let bytes = C.assemble header sections in
      match C.read_sections bytes with
      | Error _ -> false
      | Ok (header', sections') ->
          header' = header && sections' = sections
          && C.read_header bytes = Ok header
          &&
          (* read_info agrees with the full read on every summary *)
          match C.read_info bytes with
          | Error _ -> false
          | Ok (_, summaries) ->
              List.length summaries = List.length sections
              && List.for_all2
                   (fun y s ->
                     y.C.y_seed = s.C.s_seed
                     && y.C.y_n_events = s.C.s_n_events
                     && y.C.y_bytes = String.length s.C.s_events
                     && y.C.y_outcome = s.C.s_trailer.C.t_outcome
                     && y.C.y_steps = s.C.s_trailer.C.t_steps)
                   summaries sections)

(* -- hostile bytes are structured errors, never a plausible decode -- *)

let small_trace () =
  let rng = Prng.create 7 in
  let header = gen_header rng in
  let events = List.init 40 (fun _ -> gen_event rng) in
  let s_events, s_hash = C.encode_events events in
  let section =
    {
      C.s_seed = 3;
      s_n_events = 40;
      s_events;
      s_hash;
      s_trailer =
        { C.t_outcome = C.Finished; t_steps = 17; t_check_failures = [] };
    }
  in
  (C.assemble header [ section ], s_events)

let test_reject_not_a_trace () =
  (match C.read_header "certainly not a trace" with
  | Error C.Bad_magic -> ()
  | Error e -> Alcotest.failf "wanted Bad_magic, got %s" (C.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted junk");
  match C.read_sections "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty input"

let test_reject_future_version () =
  let trace, _ = small_trace () in
  let b = Bytes.of_string trace in
  (* magic is 8 bytes; the version varint follows *)
  Bytes.set b 8 (Char.chr 99);
  match C.read_sections (Bytes.to_string b) with
  | Error (C.Bad_version 99) -> ()
  | Error e ->
      Alcotest.failf "wanted Bad_version 99, got %s" (C.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted a future format version"

let test_reject_every_truncation () =
  let trace, _ = small_trace () in
  let n = String.length trace in
  for len = 0 to n - 1 do
    match C.read_sections (String.sub trace 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted a %d/%d-byte prefix" len n
  done

let test_reject_trailing_garbage () =
  let trace, _ = small_trace () in
  match C.read_sections (trace ^ "\x00") with
  | Error (C.Corrupt _) -> ()
  | Error e -> Alcotest.failf "wanted Corrupt, got %s" (C.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted trailing bytes"

let test_reject_corrupt_body () =
  let trace, s_events = small_trace () in
  (* The encoded event bytes appear verbatim inside the file; flip one
     bit in the middle of them and the per-section hash must catch it. *)
  let needle_at =
    let rec find i =
      if i + String.length s_events > String.length trace then
        Alcotest.fail "event bytes not found in assembled trace"
      else if String.sub trace i (String.length s_events) = s_events then i
      else find (i + 1)
    in
    find 0
  in
  let off = needle_at + (String.length s_events / 2) in
  let b = Bytes.of_string trace in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  match C.read_sections (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hash did not catch a corrupted event body"

let test_reject_oversized_declaration () =
  (* magic, version 1, then a digest string claiming 2^25 bytes. *)
  let buf = Buffer.create 32 in
  Buffer.add_string buf "ARDETRC\x01";
  Buffer.add_char buf '\x01';
  let rec varint n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      varint (n lsr 7)
    end
  in
  varint (1 lsl 25);
  Buffer.add_string buf (String.make 64 'x');
  match C.read_header (Buffer.contents buf) with
  | Error (C.Limit _) -> ()
  | Error e -> Alcotest.failf "wanted Limit, got %s" (C.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted an oversized declared length"

(* -- the replay-identity oracle ------------------------------------ *)

let result_bytes r = J.to_string (D.result_to_json r)

let identity_cases () =
  let all = W.Racey.all () in
  let cats =
    List.sort_uniq compare (List.map (fun c -> c.W.Racey.category) all)
  in
  List.filter_map
    (fun cat ->
      List.find_opt
        (fun c -> c.W.Racey.category = cat && c.W.Racey.threads <= 4)
        all)
    cats

let seeds16 = List.init 16 (fun i -> i + 1)

let record_and_replay ?ctx ~mode ~source program =
  match
    Arde.record ?ctx ~mode ~detect:true ~source (Arde.Input.Program program)
  with
  | Error e -> Alcotest.failf "record: %s" e
  | Ok { D.rec_trace; rec_result = None } ->
      ignore rec_trace;
      Alcotest.fail "record ~detect:true returned no live result"
  | Ok { D.rec_trace; rec_result = Some live } -> (
      match Arde.Recorded.of_string rec_trace with
      | Error e -> Alcotest.failf "recorded trace failed to load: %s" e
      | Ok recorded ->
          let replayed = Arde.detect (Arde.Input.Recorded_trace recorded) in
          (live, replayed, rec_trace))

(* The acceptance matrix: representative unit-suite cases x every
   Table-1 mode x 16 seeds, each checked byte-for-byte. *)
let test_identity_matrix () =
  let options = Arde.Options.make ~seeds:seeds16 ~fuel:400_000 () in
  let ctx = D.ctx ~options () in
  List.iter
    (fun (case : W.Racey.case) ->
      List.iter
        (fun mode ->
          let live, replayed, _ =
            record_and_replay ~ctx ~mode ~source:case.W.Racey.name
              case.W.Racey.program
          in
          checks
            (Printf.sprintf "%s under %s" case.W.Racey.name
               (Arde.Config.mode_name mode))
            (result_bytes live) (result_bytes replayed))
        Arde.Config.all_table1_modes)
    (identity_cases ())

(* A PARSEC program under fuel starvation: Fuel_exhausted seeds must
   replay identically too (their trailers carry the outcome). *)
let test_identity_fuel_exhausted () =
  match W.Parsec.all () with
  | [] -> Alcotest.fail "no parsec programs"
  | (info, program) :: _ ->
      let options =
        Arde.Options.make ~seeds:[ 1; 2; 3; 4 ] ~fuel:3_000 ()
      in
      let live, replayed, _ =
        record_and_replay
          ~ctx:(D.ctx ~options ())
          ~mode:(Arde.Config.Helgrind_spin 7) ~source:info.W.Parsec.pname
          program
      in
      checkb "some seed starved" true
        (live.D.health.D.h_fuel_exhausted > 0
        || live.D.health.D.h_finished > 0);
      checks "fuel-starved replay is byte-identical" (result_bytes live)
        (result_bytes replayed)

(* Chaos: injected machine faults and injected detector crashes truncate
   the recorded stream exactly where they truncated the live engine's,
   so even crashed seeds replay byte-identically. *)
let test_identity_under_chaos () =
  let case = List.hd (identity_cases ()) in
  List.iter
    (fun perturbation ->
      let options =
        Arde.Chaos.apply
          (Arde.Options.make ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ] ~fuel:50_000 ())
          perturbation
      in
      let live, replayed, _ =
        record_and_replay
          ~ctx:(D.ctx ~options ())
          ~mode:(Arde.Config.Helgrind_spin 7) ~source:case.W.Racey.name
          case.W.Racey.program
      in
      checks
        (Format.asprintf "replay under %a" Arde.Chaos.pp_perturbation
           perturbation)
        (result_bytes live) (result_bytes replayed))
    [
      Arde.Chaos.Fault_at 25; Arde.Chaos.Crash_at 40;
      Arde.Chaos.Spurious_wakeups;
      Arde.Chaos.Adversarial_policy (Arde.Sched.Chunked 1);
    ]

(* Cancellation mid-run: the cancelled seeds are recorded as such and
   replay as such. *)
let test_identity_under_cancellation () =
  let case = List.hd (identity_cases ()) in
  let options = Arde.Options.make ~seeds:seeds16 ~fuel:50_000 ~jobs:1 () in
  let fired = ref 0 in
  let should_stop () =
    incr fired;
    !fired > 3
  in
  let ctx = D.ctx ~options ~should_stop () in
  let live, replayed, _ =
    record_and_replay ~ctx ~mode:(Arde.Config.Helgrind_spin 7)
      ~source:case.W.Racey.name case.W.Racey.program
  in
  checkb "some seed was cancelled" true (live.D.health.D.h_cancelled > 0);
  checks "cancelled run replays byte-identically" (result_bytes live)
    (result_bytes replayed)

(* The cheap recording mode (no engine attached) must still replay to
   exactly what a live detection run of the same options produces. *)
let test_record_without_detect_matches_live () =
  let case = List.nth (identity_cases ()) 1 in
  let options = Arde.Options.make ~seeds:[ 1; 2; 3; 4 ] ~fuel:400_000 () in
  let mode = Arde.Config.Helgrind_spin 7 in
  let ctx = D.ctx ~options () in
  match
    Arde.record ~ctx ~mode ~source:case.W.Racey.name
      (Arde.Input.Program case.W.Racey.program)
  with
  | Error e -> Alcotest.failf "record: %s" e
  | Ok { D.rec_trace; rec_result } -> (
      checkb "no live result without ~detect" true (rec_result = None);
      match Arde.Recorded.of_string rec_trace with
      | Error e -> Alcotest.failf "trace load: %s" e
      | Ok recorded ->
          let replayed = Arde.detect (Arde.Input.Recorded_trace recorded) in
          let live =
            Arde.detect ~ctx ~mode (Arde.Input.Program case.W.Racey.program)
          in
          checks "record-then-replay equals the live run" (result_bytes live)
            (result_bytes replayed))

(* [record]'s two edge cases, pinned as they stand: the detecting and
   the record-only paths disagree on an empty seed list (the former finds
   no run and reports a failed pipeline, the latter seals an empty trace)
   and on how a failed static half is worded. *)
let test_record_edge_cases () =
  let case = List.hd (identity_cases ()) in
  let record ~detect ~seeds program =
    Arde.record
      ~ctx:(D.ctx ~options:(Arde.Options.make ~seeds ~jobs:1 ()) ())
      ~mode:(Arde.Config.Helgrind_spin 7) ~detect (Arde.Input.Program program)
  in
  (match record ~detect:true ~seeds:[] case.W.Racey.program with
  | Error e -> checks "detecting, no seeds" "record: pipeline failed" e
  | Ok _ -> Alcotest.fail "detecting record of no seeds succeeded");
  (match record ~detect:false ~seeds:[] case.W.Racey.program with
  | Error e -> Alcotest.failf "record-only, no seeds: %s" e
  | Ok { D.rec_trace; rec_result } -> (
      checkb "record-only has no result" true (rec_result = None);
      match C.read_sections rec_trace with
      | Ok (_, sections) -> checki "zero sections" 0 (List.length sections)
      | Error e -> Alcotest.failf "read_sections: %s" (C.error_to_string e)));
  (* an undeclared global: the static half cannot compile it *)
  let invalid =
    let open Arde.Builder in
    program ~entry:"main"
      [ func "main" [ blk "e" [ store (g "nope") (imm 1) ] exit_t ] ]
  in
  let prepare_error =
    match
      Arde.detect
        ~ctx:(D.ctx ~options:(Arde.Options.make ~seeds:[ 1 ] ()) ())
        ~mode:(Arde.Config.Helgrind_spin 7) (Arde.Input.Program invalid)
    with
    | { D.health = { D.h_notes = [ n ]; _ }; _ }
      when String.starts_with ~prefix:"pipeline: " n ->
        String.sub n 10 (String.length n - 10)
    | _ -> Alcotest.fail "expected exactly one pipeline note"
  in
  (match record ~detect:true ~seeds:[ 1 ] invalid with
  | Error e -> checks "detecting, prepare fails" ("pipeline: " ^ prepare_error) e
  | Ok _ -> Alcotest.fail "recorded an uncompilable program");
  match record ~detect:false ~seeds:[ 1 ] invalid with
  | Error e -> checks "record-only, prepare fails" prepare_error e
  | Ok _ -> Alcotest.fail "recorded an uncompilable program"

(* -- the typed loader's cross-checks ------------------------------- *)

let recorded_fixture () =
  let case = List.hd (identity_cases ()) in
  let options = Arde.Options.make ~seeds:[ 1; 2 ] ~fuel:100_000 () in
  match
    Arde.record
      ~ctx:(D.ctx ~options ())
      ~mode:(Arde.Config.Helgrind_spin 7) ~source:"fixture"
      (Arde.Input.Program case.W.Racey.program)
  with
  | Error e -> Alcotest.failf "record: %s" e
  | Ok { D.rec_trace; _ } -> rec_trace

let test_loader_rejects_digest_mismatch () =
  let trace = recorded_fixture () in
  match C.read_sections trace with
  | Error e -> Alcotest.failf "read_sections: %s" (C.error_to_string e)
  | Ok (h, sections) -> (
      (* flip one hex digit of the claimed digest; the program itself is
         untouched, so the loader's cross-check must notice *)
      let d = Bytes.of_string h.C.h_digest in
      Bytes.set d 0 (if Bytes.get d 0 = '0' then '1' else '0');
      let tampered =
        C.assemble { h with C.h_digest = Bytes.to_string d } sections
      in
      match Arde.Recorded.of_string tampered with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded a trace whose digest does not match")

let test_loader_rejects_unknown_mode () =
  let trace = recorded_fixture () in
  match C.read_sections trace with
  | Error e -> Alcotest.failf "read_sections: %s" (C.error_to_string e)
  | Ok (h, sections) -> (
      let tampered = C.assemble { h with C.h_mode = "warp:9" } sections in
      match Arde.Recorded.of_string tampered with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded a trace with an unknown mode")

let test_mode_conflict_fails_closed () =
  let trace = recorded_fixture () in
  match Arde.Recorded.of_string trace with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok recorded ->
      let result =
        Arde.detect ~mode:Arde.Config.Drd (Arde.Input.Recorded_trace recorded)
      in
      checkb "conflicting mode yields a Failed health" true
        (result.D.health.D.h_verdict = D.Failed)

let test_trace_info () =
  let trace = recorded_fixture () in
  match C.read_info trace with
  | Error e -> Alcotest.failf "read_info: %s" (C.error_to_string e)
  | Ok (h, summaries) ->
      checks "mode survives" "lib+spin:7" h.C.h_mode;
      checks "source survives" "fixture" h.C.h_source;
      checki "one summary per seed" 2 (List.length summaries);
      List.iter
        (fun y ->
          checkb "positive event count" true (y.C.y_n_events > 0);
          checkb "events have bytes" true (y.C.y_bytes > 0))
        summaries;
      (* and the typed view agrees *)
      (match Arde.Recorded.of_string trace with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok r ->
          Alcotest.(check (list int)) "seeds" [ 1; 2 ] (Arde.Recorded.seeds r);
          checkb "n_events totals the summaries" true
            (Arde.Recorded.n_events r
            = List.fold_left (fun a y -> a + y.C.y_n_events) 0 summaries))

let suite =
  [
    prop_base64_roundtrip;
    Alcotest.test_case "base64 strict decode" `Quick test_base64_strict;
    prop_events_roundtrip;
    prop_file_roundtrip;
    Alcotest.test_case "reject non-traces" `Quick test_reject_not_a_trace;
    Alcotest.test_case "reject future version" `Quick
      test_reject_future_version;
    Alcotest.test_case "reject every truncation" `Quick
      test_reject_every_truncation;
    Alcotest.test_case "reject trailing garbage" `Quick
      test_reject_trailing_garbage;
    Alcotest.test_case "reject corrupt event body" `Quick
      test_reject_corrupt_body;
    Alcotest.test_case "reject oversized declaration" `Quick
      test_reject_oversized_declaration;
    Alcotest.test_case "replay identity: cases x modes x 16 seeds" `Slow
      test_identity_matrix;
    Alcotest.test_case "replay identity under fuel starvation" `Quick
      test_identity_fuel_exhausted;
    Alcotest.test_case "replay identity under chaos" `Quick
      test_identity_under_chaos;
    Alcotest.test_case "replay identity under cancellation" `Quick
      test_identity_under_cancellation;
    Alcotest.test_case "record without detect matches live" `Quick
      test_record_without_detect_matches_live;
    Alcotest.test_case "record edge cases" `Quick test_record_edge_cases;
    Alcotest.test_case "loader rejects digest mismatch" `Quick
      test_loader_rejects_digest_mismatch;
    Alcotest.test_case "loader rejects unknown mode" `Quick
      test_loader_rejects_unknown_mode;
    Alcotest.test_case "mode conflict fails closed" `Quick
      test_mode_conflict_fails_closed;
    Alcotest.test_case "trace info" `Quick test_trace_info;
  ]
