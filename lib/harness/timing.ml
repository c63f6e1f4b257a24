(* Shared bench timing; see timing.mli. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let median l =
  match List.sort compare l with
  | [] -> invalid_arg "Timing.median: empty list"
  | a -> List.nth a (List.length a / 2)

let percentile q l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let timed ~repeats ?(setup = ignore) run =
  let times = ref [] and allocs = ref [] and last = ref None in
  for rep = 0 to repeats do
    setup ();
    let a0 = alloc_words () in
    let t0 = now () in
    let r = run () in
    let t = now () -. t0 in
    if rep > 0 then begin
      times := t :: !times;
      allocs := (alloc_words () -. a0) :: !allocs
    end;
    last := Some r
  done;
  (median !times, median !allocs, Option.get !last)
