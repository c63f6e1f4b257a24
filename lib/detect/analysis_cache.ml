type prepared = {
  p_source : Arde_tir.Types.program;
  p_program : Arde_tir.Types.program;
  p_instrument : Arde_cfg.Instrument.t option;
  p_cv_mutexes : string list;
  p_inferred_locks : string list;
  p_compiled : Arde_runtime.Machine.compiled;
}

type stats = {
  prepare_hits : int;
  prepare_misses : int;
  disk_hits : int;
  disk_misses : int;
  saves : int;
  evictions : int;
  corrupt_recovered : int;
  store_errors : int;
}

let lock = Mutex.create ()

(* Each entry holds a [Machine.compiled] (code arrays plus the
   per-instrumentation spin cache built on first run) and the parsed
   program the serve worker reuses instead of re-parsing, so the table
   is bounded: insertion order is tracked in [prep_order] and the oldest
   entry is evicted past [max_prepared].  A resident server seeing an
   endless stream of unique programs therefore plateaus instead of
   growing without bound. *)
let max_prepared = 128

type key = string * string * Arde_tir.Lower.style * bool

let prep_tbl : (key, prepared) Hashtbl.t = Hashtbl.create 64
let prep_order : key Queue.t = Queue.create ()

(* The one counter set, guarded by [lock]: memory lookups and the
   outcomes the store hook reports. *)
let zero_stats =
  {
    prepare_hits = 0;
    prepare_misses = 0;
    disk_hits = 0;
    disk_misses = 0;
    saves = 0;
    evictions = 0;
    corrupt_recovered = 0;
    store_errors = 0;
  }

let counts = ref zero_stats
let on = ref true

(* Optional second cache level behind the in-memory table, registered by
   the serve worker (the on-disk bundle store lives in [Arde_server] and
   cannot be referenced from here without a cycle).  Both callbacks run
   outside the cache mutex — they do disk I/O, parsing and compilation. *)
type store_key = {
  sk_digest : string;
  sk_mode : Config.mode;
  sk_style : Arde_tir.Lower.style;
  sk_count_callees : bool;
}

type load = Loaded of prepared | Absent | Corrupt
type save = Saved of { evicted : int } | Save_failed

type store = {
  store_load : store_key -> load;
  store_save : store_key -> prepared -> save;
}

let store_hook : store option ref = ref None

(* Keys being computed right now, for single-flight: concurrent callers
   missing on the same key wait for the first instead of recomputing
   (and, with a store registered, instead of racing the write-back). *)
let inflight : (key, unit) Hashtbl.t = Hashtbl.create 8
let flight_done = Condition.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let bump f = counts := f !counts
let count f = locked (fun () -> bump f)

let digest_of_program prog =
  Digest.string (Arde_tir.Pretty.program_to_string prog)

(* The full static half of the pipeline, computed once per
   (program, mode, knobs). *)
let compute_prepared ~style ~count_callees mode source =
  let program =
    if Config.needs_lowering mode then Arde_tir.Lower.lower ~style source
    else source
  in
  let instrument =
    match Config.spin_k mode with
    | Some k -> Some (Arde_cfg.Instrument.analyze ~count_callees ~k program)
    | None -> None
  in
  let cv_mutexes =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (f : Arde_tir.Types.func) ->
           List.concat_map
             (fun (b : Arde_tir.Types.block) ->
               List.filter_map
                 (function
                   | Arde_tir.Types.Cond_wait (_, m) ->
                       Some m.Arde_tir.Types.base
                   | _ -> None)
                 b.Arde_tir.Types.ins)
             f.Arde_tir.Types.blocks)
         program.Arde_tir.Types.funcs)
  in
  let inferred_locks =
    if Config.infer_locks mode then
      Arde_cfg.Lock_infer.inferred_locks (Arde_cfg.Lock_infer.analyze program)
    else []
  in
  let compiled = Arde_runtime.Machine.compile program in
  {
    p_source = source;
    p_program = program;
    p_instrument = instrument;
    p_cv_mutexes = cv_mutexes;
    p_inferred_locks = inferred_locks;
    p_compiled = compiled;
  }

let publish_prepared key v =
  if !on && not (Hashtbl.mem prep_tbl key) then begin
    Hashtbl.replace prep_tbl key v;
    Queue.push key prep_order;
    while Hashtbl.length prep_tbl > max_prepared do
      match Queue.take_opt prep_order with
      | Some old -> Hashtbl.remove prep_tbl old
      | None -> Hashtbl.reset prep_tbl
    done
  end

let key_of ~digest ~style ~count_callees mode =
  (digest, Config.mode_id mode, style, count_callees)

let find ~digest ~style ~count_callees mode =
  locked (fun () ->
      if !on then
        Hashtbl.find_opt prep_tbl (key_of ~digest ~style ~count_callees mode)
      else None)

(* Memory miss: ask the store, else compute.  A bundle off disk gets the
   caller's program as its source — the digest identifies it. *)
let load_or_compute hook skey ~style ~count_callees mode program =
  let compute () = compute_prepared ~style ~count_callees mode program in
  match hook with
  | None -> (compute (), false)
  | Some s -> (
      match s.store_load skey with
      | Loaded v ->
          count (fun c -> { c with disk_hits = c.disk_hits + 1 });
          ({ v with p_source = program }, false)
      | Absent ->
          count (fun c -> { c with disk_misses = c.disk_misses + 1 });
          (compute (), true)
      | Corrupt ->
          count (fun c ->
              { c with corrupt_recovered = c.corrupt_recovered + 1 });
          (compute (), true))

let prepare ?digest ~style ~count_callees mode program =
  let digest =
    match digest with Some d -> d | None -> digest_of_program program
  in
  let key = key_of ~digest ~style ~count_callees mode in
  (* Claim the key under the mutex: hit, wait (someone is computing it),
     or compute.  Waiters re-read the table when woken — if the computing
     caller failed or the cache was disabled meanwhile, one of them
     claims the compute slot instead. *)
  Mutex.lock lock;
  let rec claim () =
    let miss c = { c with prepare_misses = c.prepare_misses + 1 } in
    if not !on then begin
      bump miss;
      `Compute_uncached
    end
    else
      match Hashtbl.find_opt prep_tbl key with
      | Some v ->
          bump (fun c -> { c with prepare_hits = c.prepare_hits + 1 });
          `Hit v
      | None ->
          if Hashtbl.mem inflight key then begin
            Condition.wait flight_done lock;
            claim ()
          end
          else begin
            bump miss;
            Hashtbl.add inflight key ();
            `Compute
          end
  in
  let claimed = claim () in
  Mutex.unlock lock;
  match claimed with
  | `Hit v -> v
  | `Compute_uncached -> compute_prepared ~style ~count_callees mode program
  | `Compute -> (
      let release () =
        locked (fun () ->
            Hashtbl.remove inflight key;
            Condition.broadcast flight_done)
      in
      match
        let hook = locked (fun () -> !store_hook) in
        let skey =
          {
            sk_digest = digest;
            sk_mode = mode;
            sk_style = style;
            sk_count_callees = count_callees;
          }
        in
        let v, fresh =
          load_or_compute hook skey ~style ~count_callees mode program
        in
        locked (fun () ->
            publish_prepared key v;
            Hashtbl.remove inflight key;
            Condition.broadcast flight_done);
        (* Write back after releasing the waiters: serialization forces
           the spin-cache build and nobody needs to wait through it. *)
        (match hook with
        | Some s when fresh -> (
            match s.store_save skey v with
            | Saved { evicted } ->
                count (fun c ->
                    {
                      c with
                      saves = c.saves + 1;
                      evictions = c.evictions + evicted;
                    })
            | Save_failed ->
                count (fun c -> { c with store_errors = c.store_errors + 1 }))
        | _ -> ());
        v
      with
      | v -> v
      | exception e ->
          release ();
          raise e)

let stats () = locked (fun () -> !counts)

let stats_delta ~before ~after =
  {
    prepare_hits = after.prepare_hits - before.prepare_hits;
    prepare_misses = after.prepare_misses - before.prepare_misses;
    disk_hits = after.disk_hits - before.disk_hits;
    disk_misses = after.disk_misses - before.disk_misses;
    saves = after.saves - before.saves;
    evictions = after.evictions - before.evictions;
    corrupt_recovered = after.corrupt_recovered - before.corrupt_recovered;
    store_errors = after.store_errors - before.store_errors;
  }

let stats_to_json s =
  Arde_util.Json.Obj
    [
      ("prepare_hits", Arde_util.Json.Int s.prepare_hits);
      ("prepare_misses", Arde_util.Json.Int s.prepare_misses);
    ]

let store_stats_to_json s =
  Arde_util.Json.Obj
    [
      ("disk_hits", Arde_util.Json.Int s.disk_hits);
      ("disk_misses", Arde_util.Json.Int s.disk_misses);
      ("saves", Arde_util.Json.Int s.saves);
      ("evictions", Arde_util.Json.Int s.evictions);
      ("corrupt_recovered", Arde_util.Json.Int s.corrupt_recovered);
      ("store_errors", Arde_util.Json.Int s.store_errors);
    ]

let reset_stats () = locked (fun () -> counts := zero_stats)

let clear () =
  locked (fun () ->
      Hashtbl.reset prep_tbl;
      Queue.clear prep_order)

let set_enabled b = locked (fun () -> on := b)
let enabled () = locked (fun () -> !on)
let set_store s = locked (fun () -> store_hook := s)
