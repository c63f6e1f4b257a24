(* Answer keys.  Every check runs outside the timed phase; a request
   whose answer a check rejects counts as failed.

   - paper-tables: the Table 1 tallies and the Tables 4–6 cells must equal
     the "measured" columns of EXPERIMENTS.md, transcribed here by hand;
   - every distinct request must match the same request run once through
     [Driver.ref_engine], the frozen reference detector;
   - trace-roundtrip: a replay must be byte-identical to the record
     response it replays, and every predicted context must be found by an
     untimed 16-seed [ref_engine] sweep;
   - [self_test] corrupts one expected value per check and demands that
     the check fail. *)

module D = Arde.Driver
module J = Arde.Json
module C = Arde.Config

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md, "measured" columns                                   *)

(* Table 1: false alarms / missed races per configuration. *)
let table1 =
  [ ("lib", (36, 6)); ("lib+spin:7", (6, 6)); ("nolib+spin:7", (7, 14)); ("drd", (35, 13)) ]

(* Tables 4–6: racy contexts (mean of 5 seeds, cap 1000), columns lib /
   lib+spin(7) / nolib+spin(7) / drd. *)
let parsec_cells =
  [
    ("blackscholes", [ "0"; "0"; "0"; "0" ]);
    ("swaptions", [ "0"; "0"; "0"; "0" ]);
    ("fluidanimate", [ "0"; "0"; "0"; "0" ]);
    ("canneal", [ "0"; "0"; "0"; "0" ]);
    ("freqmine", [ "153"; "4"; "4"; "1000" ]);
    ("vips", [ "58.6"; "0"; "0"; "892.6" ]);
    ("bodytrack", [ "36.4"; "2"; "30"; "50.4" ]);
    ("facesim", [ "113.6"; "0"; "0"; "962.6" ]);
    ("ferret", [ "101.6"; "2"; "46"; "195.6" ]);
    ("x264", [ "1000"; "18"; "28"; "1000" ]);
    ("dedup", [ "1000"; "0"; "2"; "0" ]);
    ("streamcluster", [ "5.6"; "0"; "0"; "1000" ]);
    ("raytrace", [ "112.2"; "0"; "0"; "1000" ]);
  ]

let mode_column mode =
  let rec find i = function
    | [] -> None
    | m :: tl -> if m = mode then Some i else find (i + 1) tl
  in
  find 0 C.all_table1_modes

(* A PARSEC call's table cell, rendered as the paper experiment does. *)
let parsec_cell (r : D.result) =
  if List.exists (fun s -> s.D.sr_capped) r.D.runs then "1000"
  else Arde_util.Table.cell_float (D.mean_contexts r)

(* What one paper-table call contributes to the tables. *)
type table_answer =
  | Classified of Arde.Classify.outcome
  | Cell of string

let table_answer (call : Gen.table_call) (r : D.result) =
  match call.Gen.t_expect with
  | Gen.Unit_case c ->
      Classified
        (Arde.Classify.outcome_of
           (Arde.Classify.classify c.Arde_workloads.Racey.expectation
              ~reported:(D.racy_bases r)))
  | Gen.Parsec_row _ -> Cell (parsec_cell r)

(* Compare one pass's answers (label -> answer) with the keys.  Returns
   the labels of the calls whose answers disagree; a Table 1 tally
   mismatch blames every call of that configuration. *)
let check_tables ?(table1 = table1) ?(parsec_cells = parsec_cells) calls answers =
  let bad = ref [] in
  List.iter
    (fun (mode_id, (fa, missed)) ->
      let tally = Arde.Classify.tally_create () in
      let labels = ref [] in
      List.iter
        (fun (call : Gen.table_call) ->
          match (call.Gen.t_expect, Hashtbl.find_opt answers call.Gen.t_label) with
          | Gen.Unit_case _, Some (Classified o)
            when C.mode_id call.Gen.t_mode = mode_id ->
              Arde.Classify.tally_add tally o;
              labels := call.Gen.t_label :: !labels
          | Gen.Unit_case _, None when C.mode_id call.Gen.t_mode = mode_id ->
              bad := call.Gen.t_label :: !bad
          | _ -> ())
        calls;
      if tally.Arde.Classify.false_alarms <> fa || tally.Arde.Classify.missed <> missed
      then bad := !labels @ !bad)
    table1;
  List.iter
    (fun (call : Gen.table_call) ->
      match call.Gen.t_expect with
      | Gen.Unit_case _ -> ()
      | Gen.Parsec_row info ->
          let expected =
            match
              ( List.assoc_opt info.Arde_workloads.Parsec.pname parsec_cells,
                mode_column call.Gen.t_mode )
            with
            | Some cells, Some i -> Some (List.nth cells i)
            | _ -> None
          in
          let ok =
            match (expected, Hashtbl.find_opt answers call.Gen.t_label) with
            | Some e, Some (Cell got) -> e = got
            | _ -> false
          in
          if not ok then bad := call.Gen.t_label :: !bad)
    calls;
  List.sort_uniq compare !bad

(* ------------------------------------------------------------------ *)
(* The reference engine                                                 *)

(* The two engines legitimately differ in heap footprint, and a jobs
   clamp note depends on the host; blank both (as the engine
   differential suite does) and compare everything else byte for byte. *)
let rec normalize (j : J.t) : J.t =
  match j with
  | J.Obj fields ->
      J.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "memory_words", J.Int _ -> (k, J.Int 0)
             | "notes", J.List notes ->
                 ( k,
                   J.List
                     (List.filter
                        (function
                          | J.String s ->
                              not (String.length s >= 5 && String.sub s 0 5 = "jobs:")
                          | _ -> true)
                        notes) )
             | _ -> (k, normalize v))
           fields)
  | J.List l -> J.List (List.map normalize l)
  | _ -> j

let result_bytes j = J.to_string (normalize j)

let ref_ctx ?(jobs = 1) options =
  D.ctx ~options:(Arde.Options.with_jobs jobs options) ~engine:D.ref_engine ()

(* The reference answer for a request sent as text. *)
let ref_text ?jobs ~mode ~options text =
  result_bytes
    (D.result_to_json (D.run ~ctx:(ref_ctx ?jobs options) ~mode (Arde.Input.Text text)))

(* The reference answer for a replayed trace. *)
let ref_trace ?jobs trace =
  match Arde.Recorded.of_string trace with
  | Error e -> Error ("trace: " ^ e)
  | Ok r ->
      Ok
        (result_bytes
           (D.result_to_json
              (D.run ~ctx:(ref_ctx ?jobs (Arde.Recorded.options r))
                 (Arde.Input.Recorded_trace r))))

(* [Array.map f a] on two domains: the reference runs are independent
   and untimed, so the oracle uses both cores. *)
let par_map f a =
  let n = Array.length a in
  let half = n / 2 in
  let other = Domain.spawn (fun () -> Array.map f (Array.sub a half (n - half))) in
  let mine = Array.map f (Array.sub a 0 half) in
  Array.append mine (Domain.join other)

let same_bytes ~expected ~got =
  if String.equal expected got then Ok () else Error "result differs from the reference"

(* ------------------------------------------------------------------ *)
(* Prediction                                                           *)

(* A context: the base plus the unordered pair of access locations, the
   identity the merge deduplicates by. *)
let context_of_race (r : J.t) =
  let field k j = Option.value ~default:J.Null (J.member k j) in
  let a = J.to_string (field "loc" (field "first" r))
  and b = J.to_string (field "loc" (field "second" r)) in
  let lo, hi = if compare a b <= 0 then (a, b) else (b, a) in
  J.to_string (field "base" r) ^ "|" ^ lo ^ "|" ^ hi

let races_of_result (result : J.t) =
  match Option.bind (J.member "report" result) (J.member "races") with
  | Some (J.List l) -> l
  | _ -> []

let predicted_contexts result =
  List.filter_map
    (fun r ->
      match J.member "predicted" r with
      | Some (J.Bool true) -> Some (context_of_race r)
      | _ -> None)
    (races_of_result result)

let sweep_contexts result = List.map context_of_race (races_of_result result)

(* Untimed 16-seed reference sweep of the same program and knobs. *)
let ref_sweep16 ?jobs ~mode ~options text =
  let options = Arde.Options.with_seeds (List.init 16 (fun i -> i + 1)) options in
  sweep_contexts
    (D.result_to_json (D.run ~ctx:(ref_ctx ?jobs options) ~mode (Arde.Input.Text text)))

let predicted_within ~sweep result =
  match List.filter (fun c -> not (List.mem c sweep)) (predicted_contexts result) with
  | [] -> Ok ()
  | missing ->
      Error
        (Printf.sprintf "%d predicted context(s) outside the 16-seed sweep"
           (List.length missing))

(* ------------------------------------------------------------------ *)
(* Self-test                                                            *)

(* Corrupt one expected value per check and demand a failure.  [sample]
   is one real (expected, got) pair from the run; [tables] one pass of
   paper-table answers (absent on the served workloads). *)
let self_test ?tables ?sample ?predicted () =
  let must_fail name = function
    | Ok () -> [ "self-test: corrupted " ^ name ^ " was accepted" ]
    | Error _ -> []
  in
  let tables_failures =
    match tables with
    | None -> []
    | Some (calls, answers) ->
        let corrupt_t1 =
          List.map
            (fun (m, (fa, miss)) -> if m = "lib" then (m, (fa + 1, miss)) else (m, (fa, miss)))
            table1
        in
        let corrupt_cells =
          List.map
            (fun (p, cells) ->
              if p = "x264" then (p, List.mapi (fun i c -> if i = 1 then "19" else c) cells)
              else (p, cells))
            parsec_cells
        in
        let res t1 cells =
          match check_tables ~table1:t1 ~parsec_cells:cells calls answers with
          | [] -> Ok ()
          | _ -> Error "mismatch"
        in
        must_fail "Table 1 tally" (res corrupt_t1 parsec_cells)
        @ must_fail "Table 4-6 cell" (res table1 corrupt_cells)
  in
  let bytes_failures =
    match sample with
    | None -> []
    | Some (expected, got) ->
        let corrupted = "{\"corrupted\":true," ^ String.sub expected 1 (String.length expected - 1) in
        must_fail "reference result" (same_bytes ~expected:corrupted ~got)
  in
  let predict_failures =
    match predicted with
    | None -> []
    | Some (sweep, result) -> (
        match predicted_contexts result with
        | [] -> []
        | c :: _ ->
            must_fail "16-seed sweep"
              (predicted_within ~sweep:(List.filter (fun x -> x <> c) sweep) result))
  in
  tables_failures @ bytes_failures @ predict_failures
