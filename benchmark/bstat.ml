(* Clock, order statistics and process memory for the benchmark.

   Every duration is taken on bechamel's monotonic clock (nanoseconds,
   immune to wall-clock steps). *)

let now_ns () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6
let s_between a b = Int64.to_float (Int64.sub b a) /. 1e9

(* Time one call; returns the value and its duration in milliseconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, ms_between t0 (now_ns ()))

(* Linear-interpolation quantile of an unsorted sample (the "inclusive"
   method); [nan] on an empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* [a /. b], or 0 when nothing was measured. *)
let ratio a b = if b = 0. then 0. else a /. b

(* VmHWM (peak resident set) of a process in MiB, from /proc; [None]
   once the process is gone. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
            else scan ()
      in
      let r = try scan () with Scanf.Scan_failure _ | Failure _ -> None in
      close_in ic;
      r
