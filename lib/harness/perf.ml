(* The paper's two performance figures:

   F1 — memory consumption per detector configuration (shadow cells,
   vector clocks, auxiliary tables), reported in detector heap words plus
   GC allocation, per workload.

   F2 — runtime overhead per configuration, reported as elapsed time on
   the monotonic clock relative to executing the same program with no
   detector attached.

   The paper's claim is relative ("minor overhead due to the new
   feature"), so we report ratios against the spin-less hybrid. *)

module Parsec = Arde_workloads.Parsec
module Config = Arde.Config
module Machine = Arde.Machine
module Engine = Arde.Engine

type sample = {
  s_mode : string; (* "none" for the bare machine *)
  s_time_ns : float; (* per full run, median of repetitions *)
  s_alloc_words : float; (* GC minor+major words per run *)
  s_detector_words : int; (* live detector state at end of run *)
}

type fig = { workload : string; samples : sample list }

(* One full execution of [p], with the detector the driver would build
   for [mode] attached; [None] runs the bare machine. *)
let run_once ~seed (p : Arde.Analysis_cache.prepared) mode =
  match mode with
  | None ->
      let cfg = { Machine.default_config with Machine.seed } in
      ignore (Machine.run cfg p.p_compiled);
      0
  | Some mode ->
      let instrument = p.p_instrument in
      let engine =
        Engine.create ~cv_mutexes:p.p_cv_mutexes
          ~inferred_locks:p.p_inferred_locks (Config.make mode) ~instrument
      in
      let cfg =
        {
          Machine.default_config with
          Machine.seed;
          instrument;
          observer = Engine.observer engine;
        }
      in
      ignore (Machine.run cfg p.p_compiled);
      Engine.memory_words engine

let measure ?(repeats = 5) (info, program) =
  let sample name mode =
    (* The static half for [mode] — program form, instrumentation,
       compiled machine, condition-variable mutexes and inferred lock
       words — is the driver's own bundle; the bare "native" baseline
       takes the unlowered, uninstrumented one. *)
    let p =
      Arde.Analysis_cache.prepare ~style:info.Parsec.nolib_style
        ~count_callees:true
        (Option.value mode ~default:Config.Helgrind_lib)
        program
    in
    (* The warm-up pays the one-time costs (hashtable growth, code paths
       cold in the icache); it and the first timed repetition both run
       seed 1. *)
    let rep = ref 0 in
    let time_s, alloc, words =
      Timing.timed ~repeats (fun () ->
          let seed = max 1 !rep in
          incr rep;
          run_once ~seed p mode)
    in
    {
      s_mode = name;
      s_time_ns = time_s *. 1e9;
      s_alloc_words = alloc;
      s_detector_words = words;
    }
  in
  {
    workload = info.Parsec.pname;
    samples =
      sample "none" None
      :: List.map
           (fun m -> sample (Config.mode_name m) (Some m))
           Config.all_table1_modes;
  }

let figure_rows figs ~value ~unit_name =
  let t =
    Arde_util.Table.create
      ([ "Workload" ]
      @ List.map (fun s -> s.s_mode) (List.hd figs).samples
      @ [ Printf.sprintf "spin/lib (%s)" unit_name ])
  in
  List.iter
    (fun f ->
      let v m =
        value (List.find (fun s -> s.s_mode = m) f.samples)
      in
      let lib = v "lib" in
      let ratio = if lib > 0. then v "lib+spin(7)" /. lib else 0. in
      Arde_util.Table.add_row t
        (f.workload
         :: List.map (fun s -> Printf.sprintf "%.2g" (value s)) f.samples
        @ [ Printf.sprintf "%.2f" ratio ]))
    figs;
  Arde_util.Table.render t

let figure1 figs =
  (* memory: detector words live at end of run + words allocated *)
  figure_rows figs ~value:(fun s -> float_of_int s.s_detector_words)
    ~unit_name:"words"

let figure2 figs =
  figure_rows figs ~value:(fun s -> s.s_time_ns /. 1e6) ~unit_name:"ms"

let default_workloads () =
  List.filter_map
    (fun name -> Parsec.find name)
    [ "streamcluster"; "x264"; "bodytrack"; "blackscholes" ]

let run_figures ?repeats () =
  let figs = List.map (measure ?repeats) (default_workloads ()) in
  (figs, figure1 figs, figure2 figs)
