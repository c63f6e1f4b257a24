(* The experiment harness itself: table rendering, tallies, category
   breakdowns, inventory generation, and the perf figure plumbing. *)

module SE = Arde_harness.Suite_experiment
module PE = Arde_harness.Parsec_experiment

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

(* A tiny two-case suite keeps these tests fast. *)
let mini_cases () =
  List.filter_map Arde_workloads.Racey.find
    [ "adhoc_flag_w2/8"; "racy_counter/2"; "lock_counter/2" ]

let mini_options =
  Arde.Options.with_seeds [ 1 ] SE.suite_options

let test_run_mode_tallies () =
  let mr = SE.run_mode ~options:mini_options Arde.Config.Helgrind_lib (mini_cases ()) in
  Alcotest.(check int) "three cases detailed" 3 (List.length mr.SE.details);
  Alcotest.(check int) "tally total" 3 (Arde.Classify.total mr.SE.tally);
  Alcotest.(check int) "one false alarm (the flag case)" 1
    mr.SE.tally.Arde.Classify.false_alarms;
  Alcotest.(check int) "no misses" 0 mr.SE.tally.Arde.Classify.missed

let test_spin_mode_clean_on_mini () =
  let mr =
    SE.run_mode ~options:mini_options (Arde.Config.Helgrind_spin 7) (mini_cases ())
  in
  Alcotest.(check int) "everything correct" 3 mr.SE.tally.Arde.Classify.correct

let test_render_has_columns () =
  let mr = SE.run_mode ~options:mini_options Arde.Config.Drd (mini_cases ()) in
  let s = SE.render [ mr ] in
  List.iter
    (fun col -> Alcotest.(check bool) col true (contains s col))
    [ "False alarms"; "Missed races"; "Failed cases"; "Correct"; "Helgrind+ drd" ]

let test_category_table_renders () =
  let mr = SE.run_mode ~options:mini_options Arde.Config.Helgrind_lib (mini_cases ()) in
  let s = SE.category_table [ mr ] in
  Alcotest.(check bool) "has adhoc column" true (contains s "adhoc FA");
  Alcotest.(check bool) "has racy column" true (contains s "racy miss")

let test_failures_of () =
  let mr = SE.run_mode ~options:mini_options Arde.Config.Helgrind_lib (mini_cases ()) in
  let failures = SE.failures_of mr in
  Alcotest.(check int) "exactly the flag case fails" 1 (List.length failures);
  Alcotest.(check string) "which one" "adhoc_flag_w2/8"
    (List.hd failures).SE.case.Arde_workloads.Racey.name

let test_inventory_table () =
  let s = PE.table3 () in
  List.iter
    (fun name -> Alcotest.(check bool) name true (contains s name))
    [ "blackscholes"; "raytrace"; "OpenMP"; "GLib" ];
  (* the no-ad-hoc programs are marked '-' in the Ad-hoc column *)
  Alcotest.(check bool) "has header" true (contains s "Ad-hoc")

let test_parsec_row_shape () =
  match Arde_workloads.Parsec.find "swaptions" with
  | None -> Alcotest.fail "program missing"
  | Some pair ->
      let row = PE.run_one ~seeds:[ 1 ] pair in
      Alcotest.(check int) "four mode columns" 4 (List.length row.PE.contexts);
      List.iter
        (fun (_, v) -> Alcotest.(check (float 0.01)) "clean program" 0. v)
        row.PE.contexts;
      Alcotest.(check int) "no bad outcomes" 0 (List.length row.PE.bad)

let test_perf_measure () =
  match Arde_workloads.Parsec.find "blackscholes" with
  | None -> Alcotest.fail "program missing"
  | Some pair ->
      let fig = Arde_harness.Perf.measure ~repeats:1 pair in
      Alcotest.(check int) "baseline + four modes" 5
        (List.length fig.Arde_harness.Perf.samples);
      let f1 = Arde_harness.Perf.figure1 [ fig ] in
      let f2 = Arde_harness.Perf.figure2 [ fig ] in
      Alcotest.(check bool) "figure1 renders" true (contains f1 "blackscholes");
      Alcotest.(check bool) "figure2 renders" true (contains f2 "blackscholes")

let test_timing_timed () =
  let calls = ref 0 in
  let _, _, last =
    Arde_harness.Timing.timed ~repeats:3 (fun () ->
        incr calls;
        !calls)
  in
  Alcotest.(check int) "one warm-up plus three repeats" 4 !calls;
  Alcotest.(check int) "last result" 4 last

let test_timing_median () =
  let m = Arde_harness.Timing.median in
  Alcotest.(check (float 0.)) "odd" 2. (m [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even: upper middle" 3. (m [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.)) "singleton" 5. (m [ 5. ])

let test_timing_now_monotone () =
  let prev = ref (Arde_harness.Timing.now ()) in
  for _ = 1 to 10_000 do
    let t = Arde_harness.Timing.now () in
    if t < !prev then Alcotest.failf "now went back: %f < %f" t !prev;
    prev := t
  done

let suite =
  [
    Alcotest.test_case "run_mode tallies" `Quick test_run_mode_tallies;
    Alcotest.test_case "spin mode clean on mini suite" `Quick
      test_spin_mode_clean_on_mini;
    Alcotest.test_case "table rendering columns" `Quick test_render_has_columns;
    Alcotest.test_case "category table" `Quick test_category_table_renders;
    Alcotest.test_case "failures_of" `Quick test_failures_of;
    Alcotest.test_case "parsec inventory table" `Quick test_inventory_table;
    Alcotest.test_case "parsec row shape" `Quick test_parsec_row_shape;
    Alcotest.test_case "perf measurement" `Slow test_perf_measure;
    Alcotest.test_case "timing: timed discards one warm-up" `Quick
      test_timing_timed;
    Alcotest.test_case "timing: median" `Quick test_timing_median;
    Alcotest.test_case "timing: now never decreases" `Quick
      test_timing_now_monotone;
  ]
