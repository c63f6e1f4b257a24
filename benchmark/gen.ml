(* The seeded input generator.

   Everything a workload sends is a pure function of [--seed]: the order
   of the paper-table calls, the draw of programs, the repeat/unique
   schedule and the nonce variants.  The program under test sees only the
   generated TIR text (served workloads) or program values built from the
   bundled corpus (paper-tables).  Two runs with one seed send
   byte-identical request streams: each connection owns its own stream,
   derived from (seed, connection), so the interleaving of the two
   connections never changes what either one sends. *)

module W = Arde_workloads
module O = Arde.Options
module C = Arde.Config

(* ------------------------------------------------------------------ *)
(* paper-tables: the paper's evaluation as Arde.detect calls            *)

type expect =
  | Unit_case of W.Racey.case  (** Table 1: classify against ground truth *)
  | Parsec_row of W.Parsec.info  (** Tables 4–6: mean racy contexts *)

type table_call = {
  t_label : string;  (** "case/mode" — the oracle's key *)
  t_program : Arde.Types.program;
  t_mode : C.mode;
  t_options : O.t;
  t_expect : expect;
}

(* Per-seed pool width 1: a single sequential caller whose per-seed
   stage runs inline, so a call's time is the sum of its stages. *)
let table_jobs = 1

let parsec_options (info : W.Parsec.info) ~seeds ~fuel =
  O.make ~seeds ~fuel ~jobs:table_jobs ~sensitivity:Arde.Msm.Long_running
    ~lower_style:info.W.Parsec.nolib_style ()

(* Table 1 uses [Suite_experiment.suite_options]; Tables 4–6 use the
   PARSEC experiment's knobs with five seeds. *)
let table_calls () =
  let unit_options =
    O.with_jobs table_jobs Arde_harness.Suite_experiment.suite_options
  in
  let modes = C.all_table1_modes in
  let units =
    List.concat_map
      (fun (c : W.Racey.case) ->
        List.map
          (fun mode ->
            {
              t_label = c.W.Racey.name ^ "/" ^ C.mode_id mode;
              t_program = c.W.Racey.program;
              t_mode = mode;
              t_options = unit_options;
              t_expect = Unit_case c;
            })
          modes)
      (W.Racey.all ())
  in
  let parsec =
    List.concat_map
      (fun ((info : W.Parsec.info), program) ->
        List.map
          (fun mode ->
            {
              t_label = info.W.Parsec.pname ^ "/" ^ C.mode_id mode;
              t_program = program;
              t_mode = mode;
              t_options =
                parsec_options info ~seeds:[ 1; 2; 3; 4; 5 ] ~fuel:4_000_000;
              t_expect = Parsec_row info;
            })
          modes)
      (W.Parsec.all ())
  in
  units @ parsec

(* One pass = every call once, in an order drawn from the seed. *)
let table_pass ~seed ~pass calls =
  let a = Array.of_list calls in
  Arde.Prng.shuffle (Arde.Prng.create ((seed * 7919) + pass)) a;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Served workloads: TIR text over the wire                             *)

type cls = Repeat | Unique | Record | Replay | Predict

type base = {
  b_name : string;  (** "program/mode" *)
  b_text : string;  (** canonical TIR text *)
  b_mode : C.mode;
  b_options : O.t;
}

let serve_fuel = 20_000
let serve_seeds = [ 1; 2 ]
let serve_modes = [ C.Nolib_spin 7; C.Helgrind_spin 7 ]

let parsec_base ~seeds ~fuel mode ((info : W.Parsec.info), program) =
  {
    b_name = info.W.Parsec.pname ^ "/" ^ C.mode_id mode;
    b_text = Arde.Pretty.program_to_string program;
    b_mode = mode;
    b_options = O.with_jobs 1 (parsec_options info ~seeds ~fuel);
  }

let unit_base (c : W.Racey.case) =
  let mode = C.Helgrind_spin 7 in
  {
    b_name = c.W.Racey.name ^ "/" ^ C.mode_id mode;
    b_text = Arde.Pretty.program_to_string c.W.Racey.program;
    b_mode = mode;
    b_options =
      O.make ~seeds:serve_seeds ~fuel:serve_fuel ~jobs:1
        ~sensitivity:Arde.Msm.Short_running ();
  }

(* The unused global that makes a never-seen variant: it changes the
   text's digest (so every cache level misses) and nothing the detector
   reports. *)
let nonce_text base n =
  Printf.sprintf "global __bench_nonce_%d[1] = 0\n%s" n base.b_text

(* serve-edit's base set: the 13 PARSEC programs under both spin modes,
   plus 26 unit cases drawn from the 120 by the seed. *)
type edit_set = { parsec : base array; units : base array }

let edit_set ~seed =
  let parsec =
    List.concat_map
      (fun mode ->
        List.map (parsec_base ~seeds:serve_seeds ~fuel:serve_fuel mode)
          (W.Parsec.all ()))
      serve_modes
  in
  let cases = Array.of_list (W.Racey.all ()) in
  Arde.Prng.shuffle (Arde.Prng.create (seed * 104729)) cases;
  {
    parsec = Array.of_list parsec;
    units = Array.map unit_base (Array.sub cases 0 26);
  }

let edit_bases s = Array.to_list s.parsec @ Array.to_list s.units

(* One serve-edit round for one connection: every base once as a repeat
   (52 requests), plus 17 never-seen variants — one per PARSEC program
   (its mode alternating by round) and four unit cases — shuffled.
   17 of 69 is the workload's ~1/4 unique share.  A variant's nonce is
   fixed by (connection, round, slot), so it is new to the daemon and
   the same whatever the seed. *)
let edit_round s ~prng ~conn ~conns ~round =
  let n_parsec = Array.length s.parsec / 2 in
  let uniques =
    List.init n_parsec (fun i ->
        s.parsec.(i + (n_parsec * ((round + conn) mod 2))))
    @ List.init 4 (fun _ -> Arde.Prng.pick prng s.units)
  in
  let n_uniques = List.length uniques in
  let slots =
    List.map (fun b -> (b, b.b_text, Repeat)) (edit_bases s)
    @ List.mapi
        (fun k b -> (b, nonce_text b ((((round * n_uniques) + k) * conns) + conn), Unique))
        uniques
  in
  let a = Array.of_list slots in
  Arde.Prng.shuffle prng a;
  Array.to_list a

(* trace-roundtrip's programs: the PARSEC programs whose record response
   carries a 0.3–2 MB trace (base64), under lib+spin(7).  Full fuel: the
   programs run to completion, so a trace is a whole execution. *)
let roundtrip_programs = [ "freqmine"; "vips"; "facesim"; "x264"; "dedup"; "raytrace" ]

let roundtrip_bases () =
  List.map
    (fun name ->
      match W.Parsec.find name with
      | Some p ->
          parsec_base ~seeds:serve_seeds ~fuel:4_000_000 (C.Helgrind_spin 7) p
      | None -> failwith ("no PARSEC program " ^ name))
    roundtrip_programs

(* One trace-roundtrip round: every program once, in seeded order; each
   program is a record / replay / predict triple (the replay's trace is
   whatever the record returned, so it is filled in at send time). *)
let roundtrip_round bases ~prng =
  let a = Array.of_list bases in
  Arde.Prng.shuffle prng a;
  Array.to_list a

(* A per-connection stream generator for the served workloads: rounds
   are produced on demand, so a run never generates more than it sends. *)
type stream = { conn : int; prng : Arde.Prng.t; mutable round : int }

let stream ~seed ~conn =
  { conn; prng = Arde.Prng.create ((seed * 1_000_003) + conn); round = 0 }

let next_edit_round s st ~conns =
  let r = edit_round s ~prng:st.prng ~conn:st.conn ~conns ~round:st.round in
  st.round <- st.round + 1;
  r

let next_roundtrip_round bases st =
  let r = roundtrip_round bases ~prng:st.prng in
  st.round <- st.round + 1;
  r
