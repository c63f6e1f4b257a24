(* paper-tables: the paper's evaluation as in-process Arde.detect calls.

   One sequential caller runs Table 1 (120 unit cases x 4 modes) and
   Tables 4-6 (13 PARSEC programs x 4 modes, 5 seeds) as
   [Arde.detect (Input.Program _)] calls, in an order drawn from the
   seed.  Set-up is [Analysis_cache.prepare] over every (program, mode);
   the timed passes run after it.  Passes are whole, so every run times
   the same mix of calls. *)

module D = Arde.Driver

let setup_reps = 3

(* The static half for every call, from an empty cache. *)
let setup calls =
  let once () =
    Arde.Analysis_cache.clear ();
    snd
      (Bstat.timed (fun () ->
           List.iter
             (fun (c : Gen.table_call) ->
               ignore
                 (Arde.Analysis_cache.prepare ~style:c.Gen.t_options.Arde.Options.lower_style
                    ~count_callees:c.Gen.t_options.Arde.Options.count_callee_blocks
                    c.Gen.t_mode c.Gen.t_program))
             calls))
  in
  Bstat.median (List.init setup_reps (fun _ -> once () /. 1000.))

(* What a pass keeps of each call's result, so memory does not grow with
   the number of passes: its table answer, its health, and the digest of
   its normalized result bytes.  [first] is the first call's bytes, the
   self-test's sample. *)
type pass = {
  order : Gen.table_call array;
  answers : Oracle.table_answer array;
  failed_health : bool array;
  digests : string array;
  first : string;
  lat_ms : float array;
  wall_s : float;
}

let run_pass ~seed ~pass calls =
  let order = Array.of_list (Gen.table_pass ~seed ~pass calls) in
  let n = Array.length order in
  let lat_ms = Array.make n 0. in
  let t0 = Bstat.now_ns () in
  let results =
    Array.mapi
      (fun i (c : Gen.table_call) ->
        let ctx = D.ctx ~options:c.Gen.t_options () in
        let r, ms =
          Bstat.timed (fun () ->
              Span.with_ ~req:i "driver.detect" (fun _ ->
                  Arde.detect ~ctx ~mode:c.Gen.t_mode (Arde.Input.Program c.Gen.t_program)))
        in
        lat_ms.(i) <- ms;
        r)
      order
  in
  let wall_s = Bstat.s_between t0 (Bstat.now_ns ()) in
  let bytes = Array.map (fun r -> Oracle.result_bytes (D.result_to_json r)) results in
  {
    order;
    answers = Array.mapi (fun i c -> Oracle.table_answer c results.(i)) order;
    failed_health = Array.map (fun r -> r.D.health.D.h_verdict = D.Failed) results;
    digests = Array.map Digest.string bytes;
    first = bytes.(0);
    lat_ms;
    wall_s;
  }

(* Whole passes until [seconds] have gone by (at least one). *)
let timed_passes ~seed ~seconds calls =
  let rec go i acc elapsed =
    if i > 0 && elapsed >= seconds then List.rev acc
    else
      let p = run_pass ~seed ~pass:i calls in
      go (i + 1) (p :: acc) (elapsed +. p.wall_s)
  in
  go 0 [] 0.

let answers_of p =
  let answers = Hashtbl.create 600 in
  Array.iteri (fun i c -> Hashtbl.replace answers c.Gen.t_label p.answers.(i)) p.order;
  answers

(* Check every pass: the tables against EXPERIMENTS.md, and every call
   against the reference engine (run once per distinct call).  Returns
   the number of failed calls and the failure notes. *)
let check calls passes =
  let failed = ref 0 and notes = ref [] in
  let note s = if List.length !notes < 10 then notes := s :: !notes in
  let reference = Hashtbl.create 600 in
  List.iter
    (fun (c : Gen.table_call) ->
      let r =
        D.run ~ctx:(Oracle.ref_ctx ~jobs:2 c.Gen.t_options) ~mode:c.Gen.t_mode
          (Arde.Input.Program c.Gen.t_program)
      in
      Hashtbl.replace reference c.Gen.t_label (Oracle.result_bytes (D.result_to_json r)))
    calls;
  List.iter
    (fun p ->
      let bad = Oracle.check_tables calls (answers_of p) in
      List.iter (fun l -> note ("table mismatch: " ^ l)) bad;
      Array.iteri
        (fun i (c : Gen.table_call) ->
          let label = c.Gen.t_label in
          if List.mem label bad then incr failed
          else if p.failed_health.(i) then begin
            incr failed;
            note ("failed health: " ^ label)
          end
          else if
            not (String.equal p.digests.(i) (Digest.string (Hashtbl.find reference label)))
          then begin
            incr failed;
            note (label ^ ": result differs from the reference")
          end)
        p.order)
    passes;
  let self =
    match passes with
    | [] -> []
    | p :: _ ->
        Oracle.self_test ~tables:(calls, answers_of p)
          ~sample:(Hashtbl.find reference p.order.(0).Gen.t_label, p.first)
          ()
  in
  (!failed, List.rev !notes @ self)

type outcome = {
  calls : Gen.table_call list;
  setup_s : float;
  attempted : int;
  failed : int;
  notes : string list;
  wall_s : float;
  lat_ms : float list;
  rss_mb : float;
  hits : Arde.Analysis_cache.stats;
  passes : pass list;
}

let run ~seed ~seconds =
  let calls = Gen.table_calls () in
  let setup_s = setup calls in
  let before = Arde.Analysis_cache.stats () in
  let passes = timed_passes ~seed ~seconds calls in
  let hits = Arde.Analysis_cache.stats_delta ~before ~after:(Arde.Analysis_cache.stats ()) in
  let rss_mb = Option.value ~default:0. (Bstat.peak_rss_mb 0) in
  let failed, notes = check calls passes in
  {
    calls;
    setup_s;
    attempted = List.fold_left (fun a (p : pass) -> a + Array.length p.order) 0 passes;
    failed;
    notes;
    wall_s = List.fold_left (fun a (p : pass) -> a +. p.wall_s) 0. passes;
    lat_ms = List.concat_map (fun (p : pass) -> Array.to_list p.lat_ms) passes;
    rss_mb;
    hits;
    passes;
  }

(* The traced run's extra work: the same passes again with spans on
   (the first run above is the untraced baseline), then the layer probes
   on a seeded sample of the calls — the 13 PARSEC programs under one
   mode each and 52 unit-case calls. *)
let probe_sample ~seed calls =
  let modes = Arde.Config.all_table1_modes in
  let parsec, units =
    List.partition
      (fun (c : Gen.table_call) ->
        match c.Gen.t_expect with Gen.Parsec_row _ -> true | Gen.Unit_case _ -> false)
      calls
  in
  let parsec =
    List.filteri
      (fun i (c : Gen.table_call) ->
        c.Gen.t_mode = List.nth modes (((i / 4) + seed) mod 4))
      parsec
  in
  let units = Array.of_list units in
  Arde.Prng.shuffle (Arde.Prng.create (seed + 31)) units;
  parsec @ Array.to_list (Array.sub units 0 52)

let traced ~seed (o : outcome) =
  Span.enabled := true;
  let traced_passes =
    List.mapi (fun i _ -> run_pass ~seed ~pass:i o.calls) o.passes
  in
  List.iteri (fun i c -> Probe.table_call ~req:(100_000 + i) c) (probe_sample ~seed o.calls);
  Span.enabled := false;
  List.fold_left (fun a (p : pass) -> a +. p.wall_s) 0. traced_passes
