(* The parallel per-seed stage and its supporting API surface:

   - determinism: [jobs = 1] and [jobs = 8] produce byte-identical
     results (merged report, per-seed runs, health verdict), across the
     workload catalog and under chaos-injected crashes;
   - the analysis cache returns exactly what a fresh analysis returns,
     and actually hits on repeated runs;
   - the JSON wire forms round-trip;
   - the Options construction API behaves. *)

module D = Arde.Driver
module O = Arde.Options
module J = Arde.Json

(* The determinism checks vary only the pool width, and a width beyond
   the host core count is (by design) recorded as a clamp note in the
   health record — drop those notes so the comparison sees just the
   detection results. *)
let strip_clamp_notes r =
  let h = r.D.health in
  {
    r with
    D.health =
      {
        h with
        D.h_notes =
          List.filter
            (fun n ->
              not (String.length n >= 5 && String.sub n 0 5 = "jobs:"))
            h.D.h_notes;
      };
  }

let result_bytes r = J.to_string (D.result_to_json (strip_clamp_notes r))

let run_with_jobs ~jobs ?(options = O.default) mode p =
  Arde.detect
    ~ctx:(Arde.Driver.ctx ~options:(O.with_jobs jobs options) ())
    ~mode (Arde.Input.Program p)

(* ------------------------------------------------------------------ *)
(* Determinism across pool widths                                      *)

(* A slice of the catalog: every 12th case samples all categories
   without making the test slow. *)
let catalog_sample () =
  List.filteri (fun i _ -> i mod 12 = 0) (Arde_workloads.Racey.all ())

let test_jobs_determinism () =
  let options = O.make ~seeds:[ 1; 2; 3; 4; 5; 6 ] ~fuel:400_000 () in
  List.iter
    (fun (c : Arde_workloads.Racey.case) ->
      List.iter
        (fun mode ->
          let seq = run_with_jobs ~jobs:1 ~options mode c.program in
          let par = run_with_jobs ~jobs:8 ~options mode c.program in
          Alcotest.(check string)
            (Printf.sprintf "%s under %s: jobs=1 = jobs=8" c.name
               (Arde.Config.mode_name mode))
            (result_bytes seq) (result_bytes par);
          Alcotest.(check (list string))
            (c.name ^ ": racy bases agree") (D.racy_bases seq)
            (D.racy_bases par))
        [ Arde.Config.Helgrind_lib; Arde.Config.Helgrind_spin 7 ])
    (catalog_sample ())

let racy_case name =
  match Arde_workloads.Racey.find name with
  | Some c -> c.Arde_workloads.Racey.program
  | None -> Alcotest.failf "case %s missing" name

let test_jobs_determinism_under_chaos () =
  (* Crashing and faulting seeds exercise the sandbox on worker domains;
     the salvage path must stay order-stable too. *)
  let p = racy_case "racy_counter/2" in
  List.iter
    (fun perturbation ->
      let options =
        Arde.Chaos.apply
          (O.make ~seeds:[ 1; 2; 3; 4; 5 ] ~fuel:60_000 ())
          perturbation
      in
      let seq = run_with_jobs ~jobs:1 ~options Arde.Config.(Helgrind_spin 7) p in
      let par = run_with_jobs ~jobs:8 ~options Arde.Config.(Helgrind_spin 7) p in
      Alcotest.(check string)
        (Format.asprintf "%a: jobs=1 = jobs=8" Arde.Chaos.pp_perturbation
           perturbation)
        (result_bytes seq) (result_bytes par))
    [
      Arde.Chaos.Crash_at 40;
      Arde.Chaos.Fault_at 25;
      Arde.Chaos.Spurious_wakeups;
      Arde.Chaos.Starve_fuel 200;
    ]

(* ------------------------------------------------------------------ *)
(* Analysis cache                                                      *)

module AC = Arde.Analysis_cache

let prepare ?digest ?(style = Arde.Lower.Realistic) mode p =
  AC.prepare ?digest ~style ~count_callees:true mode p

let test_cache_matches_fresh_instrumentation () =
  let p = racy_case "adhoc_flag_w2/8" in
  AC.clear ();
  let mode = Arde.Config.Helgrind_spin 7 in
  let fresh = Arde.Instrument.analyze ~count_callees:true ~k:7 p in
  let first = prepare mode p in
  let cached = prepare mode p in
  let summary (b : AC.prepared) =
    match b.AC.p_instrument with
    | Some i -> Format.asprintf "%a" Arde.Instrument.pp_summary i
    | None -> Alcotest.fail "spin mode prepared no instrumentation"
  in
  let fresh_summary = Format.asprintf "%a" Arde.Instrument.pp_summary fresh in
  Alcotest.(check string) "cache miss = fresh analysis" fresh_summary
    (summary first);
  Alcotest.(check string) "cache hit = fresh analysis" fresh_summary
    (summary cached);
  Alcotest.(check int) "same accepted spin loops"
    (List.length (Arde.Instrument.spins fresh))
    (match cached.AC.p_instrument with
    | Some i -> List.length (Arde.Instrument.spins i)
    | None -> -1)

let test_cache_matches_fresh_lowering () =
  let p = racy_case "adhoc_flag_w2/8" in
  AC.clear ();
  let style = Arde.Lower.Realistic in
  let mode = Arde.Config.Nolib_spin 7 in
  let fresh = Arde.Lower.lower ~style p in
  let fresh_inst = Arde.Instrument.analyze ~count_callees:true ~k:7 fresh in
  ignore (prepare ~style mode p);
  let cached = prepare ~style mode p in
  Alcotest.(check string) "cached lowering = fresh lowering"
    (Arde.Pretty.program_to_string fresh)
    (Arde.Pretty.program_to_string cached.AC.p_program);
  Alcotest.(check string) "instrumentation of the lowered program"
    (Format.asprintf "%a" Arde.Instrument.pp_summary fresh_inst)
    (match cached.AC.p_instrument with
    | Some i -> Format.asprintf "%a" Arde.Instrument.pp_summary i
    | None -> "none");
  Alcotest.(check bool) "the source is the program as given" true
    (cached.AC.p_source == p)

let test_cache_hits_on_repeated_runs () =
  let p = racy_case "adhoc_flag_w2/8" in
  let options = O.make ~seeds:[ 1; 2; 3; 4; 5 ] ~fuel:100_000 () in
  AC.clear ();
  AC.reset_stats ();
  (* Nolib_spin lowers and instruments; the first run computes the
     prepared bundle (one miss), and every later run is a prepared hit. *)
  let run () =
    ignore
      (Arde.detect
         ~ctx:(Arde.Driver.ctx ~options ())
         ~mode:(Arde.Config.Nolib_spin 7) (Arde.Input.Program p))
  in
  run ();
  let s = AC.stats () in
  Alcotest.(check int) "first run: one prepared miss" 1 s.AC.prepare_misses;
  Alcotest.(check int) "first run: no hit" 0 s.AC.prepare_hits;
  run ();
  run ();
  let s = AC.stats () in
  Alcotest.(check int) "repeats hit" 2 s.AC.prepare_hits;
  Alcotest.(check int) "still one prepared miss" 1 s.AC.prepare_misses

let test_cache_disabled_recomputes () =
  let p = racy_case "racy_counter/2" in
  AC.clear ();
  AC.set_enabled false;
  Fun.protect
    ~finally:(fun () -> AC.set_enabled true)
    (fun () ->
      AC.reset_stats ();
      let mode = Arde.Config.Helgrind_spin 7 in
      let a = prepare mode p in
      let b = prepare mode p in
      let s = AC.stats () in
      Alcotest.(check int) "no hits while disabled" 0 s.AC.prepare_hits;
      Alcotest.(check int) "both lookups miss" 2 s.AC.prepare_misses;
      Alcotest.(check bool) "each prepare computed its own bundle" true
        (a.AC.p_compiled != b.AC.p_compiled);
      Alcotest.(check bool) "nothing is cached while disabled" true
        (Option.is_none
           (AC.find ~digest:(AC.digest_of_program p)
              ~style:Arde.Lower.Realistic ~count_callees:true mode)))

(* The memory tier is the only in-process bound on prepared bundles (and
   so on the parsed programs a serve worker keeps): [max_prepared + 1]
   distinct digests push the first one out, and asking for it again
   recomputes an equal bundle. *)
let test_cache_tier_bounded () =
  let p = racy_case "racy_counter/2" in
  let mode = Arde.Config.Helgrind_spin 7 in
  AC.clear ();
  AC.reset_stats ();
  let digest i = Printf.sprintf "bounded-%d" i in
  let first = prepare ~digest:(digest 0) mode p in
  for i = 1 to AC.max_prepared do
    ignore (prepare ~digest:(digest i) mode p)
  done;
  let find i =
    AC.find ~digest:(digest i) ~style:Arde.Lower.Realistic ~count_callees:true
      mode
  in
  Alcotest.(check bool) "oldest entry evicted" true (Option.is_none (find 0));
  Alcotest.(check bool) "newest entry resident" true
    (Option.is_some (find AC.max_prepared));
  let s = AC.stats () in
  Alcotest.(check int) "every distinct digest missed" (AC.max_prepared + 1)
    s.AC.prepare_misses;
  let again = prepare ~digest:(digest 0) mode p in
  let s = AC.stats () in
  Alcotest.(check int) "the evicted key misses again" (AC.max_prepared + 2)
    s.AC.prepare_misses;
  Alcotest.(check int) "no hit along the way" 0 s.AC.prepare_hits;
  Alcotest.(check bool) "recomputed, not resurrected" true
    (again.AC.p_compiled != first.AC.p_compiled);
  Alcotest.(check string) "recomputed bundle equals the first"
    (Arde.Pretty.program_to_string first.AC.p_program)
    (Arde.Pretty.program_to_string again.AC.p_program);
  Alcotest.(check bool) "same instrumentation and lock lists" true
    (Option.map
       (Format.asprintf "%a" Arde.Instrument.pp_summary)
       first.AC.p_instrument
     = Option.map
         (Format.asprintf "%a" Arde.Instrument.pp_summary)
         again.AC.p_instrument
    && first.AC.p_cv_mutexes = again.AC.p_cv_mutexes
    && first.AC.p_inferred_locks = again.AC.p_inferred_locks);
  AC.clear ()

(* ------------------------------------------------------------------ *)
(* JSON wire forms                                                     *)

let test_json_value_roundtrip () =
  let v =
    J.Obj
      [
        ("null", J.Null);
        ("flag", J.Bool true);
        ("n", J.Int (-42));
        ("pi", J.Float 3.25);
        ("whole", J.Float 2.0);
        ("s", J.String "line\nbreak \"quoted\" \t tab \\ slash");
        ("xs", J.List [ J.Int 1; J.List []; J.Obj [] ]);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "minified round-trip" true (v = v')
  | Error e -> Alcotest.fail e);
  (match J.parse (J.to_string ~minify:false v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trip" true (v = v')
  | Error e -> Alcotest.fail e);
  match J.parse "{\"unterminated\": " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad input parsed"

let test_report_json_roundtrip () =
  let r =
    Arde.detect
      ~ctx:(Arde.Driver.ctx ~options:(O.make ~seeds:[ 1; 2; 3 ] ()) ())
      ~mode:Arde.Config.Helgrind_lib
      (Arde.Input.Program (racy_case "racy_counter/2"))
  in
  let merged = r.D.merged in
  Alcotest.(check bool) "report is non-trivial" true
    (Arde.Report.n_contexts merged > 0);
  match Arde.Report.of_json (Arde.Report.to_json merged) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check int) "contexts preserved"
        (Arde.Report.n_contexts merged)
        (Arde.Report.n_contexts back);
      Alcotest.(check bool) "races preserved" true
        (Arde.Report.races merged = Arde.Report.races back);
      Alcotest.(check string) "re-serialization is byte-identical"
        (J.to_string (Arde.Report.to_json merged))
        (J.to_string (Arde.Report.to_json back))

let test_health_json_roundtrip () =
  (* A degraded run gives the health record non-zero counters and
     notes. *)
  let options =
    Arde.Chaos.apply (O.make ~seeds:[ 1; 2; 3 ] ~fuel:60_000 ())
      (Arde.Chaos.Crash_at 30)
  in
  let r =
    Arde.detect
      ~ctx:(Arde.Driver.ctx ~options ())
      ~mode:Arde.Config.Helgrind_lib
      (Arde.Input.Program (racy_case "racy_counter/2"))
  in
  let h = r.D.health in
  match D.health_of_json (D.health_to_json h) with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check bool) "health round-trips" true (h = back)

(* ------------------------------------------------------------------ *)
(* Options construction API                                            *)

let test_options_api () =
  Alcotest.(check bool) "make () = default" true (O.make () = O.default);
  let o =
    O.default
    |> O.with_seed_count 4
    |> O.with_fuel 123
    |> O.with_jobs 3
    |> O.with_policy Arde.Sched.Uniform
  in
  Alcotest.(check (list int)) "with_seed_count" [ 1; 2; 3; 4 ] o.O.seeds;
  Alcotest.(check int) "with_fuel" 123 o.O.fuel;
  Alcotest.(check int) "with_jobs" 3 o.O.jobs;
  Alcotest.(check bool) "with_policy" true (o.O.policy = Arde.Sched.Uniform);
  Alcotest.(check bool) "make overrides" true
    ((O.make ~fuel:99 ()).O.fuel = 99)

let test_effective_jobs () =
  let with_jobs j = O.with_jobs j O.default in
  let host = O.default_jobs in
  Alcotest.(check int) "explicit width clamped to host and seeds"
    (max 1 (min (min 8 host) 3))
    (O.effective_jobs (with_jobs 8) ~n_seeds:3);
  Alcotest.(check int) "explicit width below seeds"
    (max 1 (min (min 2 host) 5))
    (O.effective_jobs (with_jobs 2) ~n_seeds:5);
  Alcotest.(check int) "at least one" 1
    (O.effective_jobs (with_jobs 4) ~n_seeds:0);
  Alcotest.(check int) "0 means hardware width (clamped)"
    (max 1 (min O.default_jobs 64))
    (O.effective_jobs (with_jobs 0) ~n_seeds:64);
  Alcotest.(check bool) "oversized request is reported as a clamp"
    (8 > host)
    (O.jobs_clamp (with_jobs 8) <> None);
  Alcotest.(check bool) "hardware default is never a clamp" true
    (O.jobs_clamp (with_jobs 0) = None);
  Alcotest.(check bool) "width 1 is never a clamp" true
    (O.jobs_clamp (with_jobs 1) = None)

(* ------------------------------------------------------------------ *)
(* The domain pool itself                                              *)

let test_domain_pool_map () =
  let xs = List.init 50 Fun.id in
  let expect = List.map (fun i -> i * i) xs in
  Alcotest.(check (list int)) "order preserved at jobs=4" expect
    (Arde.Domain_pool.map ~jobs:4 (fun i -> i * i) xs);
  Alcotest.(check (list int)) "jobs=1 is plain map" expect
    (Arde.Domain_pool.map ~jobs:1 (fun i -> i * i) xs)

let test_domain_pool_exception () =
  match
    Arde.Domain_pool.map ~jobs:4
      (fun i -> if i = 17 then failwith "boom" else i)
      (List.init 32 Fun.id)
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "exception surfaces" "boom" m

let suite =
  [
    Alcotest.test_case "jobs=1 = jobs=8 across the catalog" `Slow
      test_jobs_determinism;
    Alcotest.test_case "jobs=1 = jobs=8 under chaos injection" `Quick
      test_jobs_determinism_under_chaos;
    Alcotest.test_case "cached instrumentation = fresh" `Quick
      test_cache_matches_fresh_instrumentation;
    Alcotest.test_case "cached lowering = fresh" `Quick
      test_cache_matches_fresh_lowering;
    Alcotest.test_case "cache hits on repeated runs" `Quick
      test_cache_hits_on_repeated_runs;
    Alcotest.test_case "disabled cache recomputes" `Quick
      test_cache_disabled_recomputes;
    Alcotest.test_case "prepared tier is bounded" `Quick
      test_cache_tier_bounded;
    Alcotest.test_case "JSON values round-trip" `Quick
      test_json_value_roundtrip;
    Alcotest.test_case "report JSON round-trips" `Quick
      test_report_json_roundtrip;
    Alcotest.test_case "health JSON round-trips" `Quick
      test_health_json_roundtrip;
    Alcotest.test_case "Options make/with_*" `Quick test_options_api;
    Alcotest.test_case "effective_jobs clamping" `Quick test_effective_jobs;
    Alcotest.test_case "domain pool preserves order" `Quick
      test_domain_pool_map;
    Alcotest.test_case "domain pool re-raises" `Quick
      test_domain_pool_exception;
  ]
