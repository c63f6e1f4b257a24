(* On-disk content-addressed store for prepared bundles.  See store.mli. *)

module J = Arde.Json
module Tc = Arde.Trace_codec
module AC = Arde.Analysis_cache
module M = Arde.Machine

let magic = "ARDEBNDL"
let version = 1
let suffix = ".bundle"

type t = {
  dir : string;
  max_bytes : int;
  lock : Mutex.t; (* serialises sweeps; entry I/O itself is lock-free *)
}

let dir t = t.dir
let default_max_mb = 512

let create ?(max_mb = default_max_mb) ~dir () =
  match
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
    if not (Sys.is_directory dir) then failwith (dir ^ ": not a directory")
  with
  | () ->
      Ok { dir; max_bytes = max_mb * 1024 * 1024; lock = Mutex.create () }
  | exception Unix.Unix_error (err, fn, _) ->
      Error
        (Printf.sprintf "store %s: %s: %s" dir fn (Unix.error_message err))
  | exception Failure e -> Error ("store " ^ e)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Naming                                                             *)

(* The file name is the content address: an MD5 over the full prepare
   key, each component length-prefixed so distinct keys cannot collide
   by concatenation. *)
let entry_name ~digest ~mode_id ~style ~count_callees =
  let b = Buffer.create 64 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    [
      digest;
      mode_id;
      Arde.Lower.style_name style;
      (if count_callees then "cc" else "");
    ];
  Digest.to_hex (Digest.string (Buffer.contents b)) ^ suffix

let entry_path t ~digest ~mode_id ~style ~count_callees =
  Filename.concat t.dir (entry_name ~digest ~mode_id ~style ~count_callees)

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)

let put_ids s (ids : int array) =
  Tc.put_varint s (Array.length ids);
  Array.iter (fun id -> Tc.put_varint s id) ids

let get_ids r what =
  let n = Tc.get_varint r what in
  if n < 0 || n > 0xFFFF then raise (Tc.Err (Tc.Corrupt { at = 0; what }));
  Array.init n (fun _ -> Tc.get_varint r what)

let encode_spin_cache s (sc : M.spin_cache) =
  let nf = Array.length sc.M.sc_header in
  Tc.put_varint s nf;
  for fid = 0 to nf - 1 do
    let nb = Array.length sc.M.sc_header.(fid) in
    Tc.put_varint s nb;
    for bi = 0 to nb - 1 do
      Tc.put_signed s sc.M.sc_header.(fid).(bi);
      put_ids s sc.M.sc_inloop.(fid).(bi);
      let tags = sc.M.sc_tags.(fid).(bi) in
      Tc.put_varint s (Array.length tags);
      Array.iter (fun ids -> put_ids s ids) tags
    done
  done

let decode_spin_cache r =
  let nf = Tc.get_varint r "spin cache nf" in
  if nf < 0 || nf > 0xFFFF then
    raise (Tc.Err (Tc.Corrupt { at = 0; what = "spin cache nf" }));
  let header = Array.make nf [||] in
  let inloop = Array.make nf [||] in
  let tags = Array.make nf [||] in
  for fid = 0 to nf - 1 do
    let nb = Tc.get_varint r "spin cache nb" in
    if nb < 0 || nb > 0xFFFFFF then
      raise (Tc.Err (Tc.Corrupt { at = 0; what = "spin cache nb" }));
    header.(fid) <- Array.make nb (-1);
    inloop.(fid) <- Array.make nb [||];
    tags.(fid) <- Array.make nb [||];
    for bi = 0 to nb - 1 do
      header.(fid).(bi) <- Tc.get_signed r "spin header";
      inloop.(fid).(bi) <- get_ids r "spin inloop";
      let npc = Tc.get_varint r "spin npc" in
      if npc < 0 || npc > 0xFFFFFF then
        raise (Tc.Err (Tc.Corrupt { at = 0; what = "spin npc" }));
      tags.(fid).(bi) <- Array.init npc (fun _ -> get_ids r "spin tags")
    done
  done;
  { M.sc_header = header; M.sc_inloop = inloop; M.sc_tags = tags }

let put_strings s l =
  Tc.put_varint s (List.length l);
  List.iter (fun x -> Tc.put_lpstr s x) l

let get_strings r what =
  let n = Tc.get_varint r what in
  if n < 0 || n > 0xFFFF then raise (Tc.Err (Tc.Corrupt { at = 0; what }));
  List.init n (fun _ -> Tc.get_lpstr r what)

(* An entry is [magic · u8 version · lpbytes body · varint fnv(body)].
   The body echoes the full key (so a name collision reads as corrupt,
   never as a wrong answer), then carries everything the load path
   cannot cheaply recompute: the processed program text and the spin
   cache.  Instrumentation, lock lists and the compiled form are
   re-derived or stored as strings — all of them milliseconds, against
   the hundreds the spin-cache build costs. *)
let encode ~digest ~mode_id ~style ~count_callees (p : AC.prepared) =
  let body = Tc.sink ~capacity:(1 lsl 16) () in
  Tc.put_lpstr body digest;
  Tc.put_lpstr body mode_id;
  Tc.put_lpstr body (Arde.Lower.style_name style);
  Tc.put_u8 body (if count_callees then 1 else 0);
  Tc.put_lpstr body (Arde.Pretty.program_to_string p.AC.p_program);
  put_strings body p.AC.p_cv_mutexes;
  put_strings body p.AC.p_inferred_locks;
  (match p.AC.p_instrument with
  | None -> Tc.put_u8 body 0
  | Some inst ->
      Tc.put_u8 body 1;
      encode_spin_cache body (M.export_spin_cache p.AC.p_compiled inst));
  let body = Tc.sink_contents body in
  let out = Tc.sink ~capacity:(String.length body + 32) () in
  String.iter (fun c -> Tc.put_u8 out (Char.code c)) magic;
  Tc.put_u8 out version;
  Tc.put_lpstr out body;
  Tc.put_varint out (Tc.hash_bytes body);
  Tc.sink_contents out

(* Decode and rebuild a [prepared] bundle.  Raises [Tc.Err] or [Failure]
   on anything structurally wrong; the caller maps every failure to
   fail-open recovery. *)
let decode ~digest ~mode ~style ~count_callees bytes =
  let mode_id = Arde.Config.mode_id mode in
  let r = Tc.reader bytes in
  let m = Bytes.create (String.length magic) in
  for i = 0 to String.length magic - 1 do
    Bytes.set m i (Char.chr (Tc.get_u8 r "magic"))
  done;
  if Bytes.to_string m <> magic then failwith "bad magic";
  let v = Tc.get_u8 r "version" in
  if v <> version then failwith (Printf.sprintf "version %d" v);
  let body = Tc.get_lpbytes r "body" in
  let sum = Tc.get_varint r "checksum" in
  if Tc.hash_bytes body <> sum then failwith "checksum mismatch";
  let r = Tc.reader body in
  let e_digest = Tc.get_lpstr r "digest" in
  let e_mode = Tc.get_lpstr r "mode" in
  let e_style = Tc.get_lpstr r "style" in
  let e_cc = Tc.get_u8 r "count_callees" = 1 in
  if
    e_digest <> digest || e_mode <> mode_id
    || e_style <> Arde.Lower.style_name style
    || e_cc <> count_callees
  then failwith "key mismatch";
  let text = Tc.get_lpstr r "program" in
  let cv_mutexes = get_strings r "cv_mutexes" in
  let inferred_locks = get_strings r "inferred_locks" in
  let spin =
    match Tc.get_u8 r "has spin cache" with
    | 0 -> None
    | 1 -> Some (decode_spin_cache r)
    | n -> failwith (Printf.sprintf "bad spin-cache flag %d" n)
  in
  let program =
    match Arde.Parse.program text with
    | Ok p -> p
    | Error e -> failwith ("program: " ^ Arde.Parse.error_to_string e)
  in
  let compiled = M.compile program in
  let instrument =
    match Arde.Config.spin_k mode with
    | None -> None
    | Some k -> Some (Arde.Instrument.analyze ~count_callees ~k program)
  in
  (match (instrument, spin) with
  | Some inst, Some sc -> (
      match M.import_spin_cache compiled inst sc with
      | Ok () -> ()
      | Error e -> failwith ("spin cache: " ^ e))
  | Some _, None | None, None -> ()
  | None, Some _ -> failwith "spin cache for uninstrumented mode");
  {
    AC.p_source = program;
    AC.p_program = program;
    AC.p_instrument = instrument;
    AC.p_cv_mutexes = cv_mutexes;
    AC.p_inferred_locks = inferred_locks;
    AC.p_compiled = compiled;
  }

(* ------------------------------------------------------------------ *)
(* Entry I/O                                                          *)

(* Tmp names carry the pid: sibling workers writing the same key must
   not share a tmp file.  The renames then race benignly — entries are
   deterministic byte-for-byte, so last writer wins with identical
   content. *)
let write_atomic path contents =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  match
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o600
        tmp
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents);
    Unix.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error e
  | exception Unix.Unix_error (err, fn, _) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))

let entry_files t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n suffix)
      |> List.filter_map (fun n ->
             let path = Filename.concat t.dir n in
             match Unix.stat path with
             | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                 Some (path, st_size, st_mtime)
             | _ -> None
             | exception Unix.Unix_error _ -> None)

let usage t =
  List.fold_left
    (fun (n, bytes) (_, size, _) -> (n + 1, bytes + size))
    (0, 0) (entry_files t)

let remove_entry path = try Sys.remove path with Sys_error _ -> ()

(* Oldest-mtime-first eviction down to [limit] bytes.  A disk hit
   freshens the entry's mtime, making this LRU rather than FIFO. *)
let sweep_to t limit =
  let files = entry_files t in
  let total = List.fold_left (fun a (_, size, _) -> a + size) 0 files in
  if total <= limit then 0
  else begin
    let by_age =
      List.sort (fun (_, _, a) (_, _, b) -> compare a b) files
    in
    let excess = ref (total - limit) in
    let evicted = ref 0 in
    List.iter
      (fun (path, size, _) ->
        if !excess > 0 then begin
          remove_entry path;
          excess := !excess - size;
          incr evicted
        end)
      by_age;
    !evicted
  end

let touch path =
  try Unix.utimes path 0.0 0.0 (* 0.0 0.0 = set both times to now *)
  with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The Analysis_cache hook                                            *)

let load t (k : AC.store_key) =
  let mode_id = Arde.Config.mode_id k.AC.sk_mode in
  let path =
    entry_path t ~digest:k.AC.sk_digest ~mode_id ~style:k.AC.sk_style
      ~count_callees:k.AC.sk_count_callees
  in
  match Util.read_file path with
  | Error _ -> AC.Absent
  | Ok bytes -> (
      match
        decode ~digest:k.AC.sk_digest ~mode:k.AC.sk_mode ~style:k.AC.sk_style
          ~count_callees:k.AC.sk_count_callees bytes
      with
      | p ->
          touch path;
          AC.Loaded p
      | exception (Tc.Err _ | Failure _ | Invalid_argument _) ->
          (* Fail open: a corrupt, truncated, versioned-out or
             wrong-keyed entry is deleted and recomputed, never fatal. *)
          remove_entry path;
          AC.Corrupt)

let save t (k : AC.store_key) (p : AC.prepared) =
  let mode_id = Arde.Config.mode_id k.AC.sk_mode in
  let path =
    entry_path t ~digest:k.AC.sk_digest ~mode_id ~style:k.AC.sk_style
      ~count_callees:k.AC.sk_count_callees
  in
  match
    encode ~digest:k.AC.sk_digest ~mode_id ~style:k.AC.sk_style
      ~count_callees:k.AC.sk_count_callees p
  with
  | bytes -> (
      match write_atomic path bytes with
      | Ok () -> AC.Saved { evicted = locked t (fun () -> sweep_to t t.max_bytes) }
      | Error _ ->
          (* ENOSPC and friends: serving degrades to compute-only. *)
          AC.Save_failed)
  | exception _ -> AC.Save_failed

let analysis_store t =
  { AC.store_load = load t; AC.store_save = save t }

(* ------------------------------------------------------------------ *)
(* Administration (the [arde cache] subcommand)                       *)

type entry_info = {
  e_path : string;
  e_digest_hex : string;
  e_mode : string;
  e_style : string;
  e_count_callees : bool;
  e_bytes : int;
  e_age_s : float;
}

(* Read just the key echo out of an entry header; None if unreadable. *)
let read_entry_key path =
  match Util.read_file path with
  | Error _ -> None
  | Ok bytes -> (
      match
        let r = Tc.reader bytes in
        for i = 0 to String.length magic - 1 do
          if Tc.get_u8 r "magic" <> Char.code magic.[i] then
            failwith "bad magic"
        done;
        let v = Tc.get_u8 r "version" in
        if v <> version then failwith "version";
        let body = Tc.get_lpbytes r "body" in
        let sum = Tc.get_varint r "checksum" in
        if Tc.hash_bytes body <> sum then failwith "checksum";
        let r = Tc.reader body in
        let digest = Tc.get_lpstr r "digest" in
        let mode_id = Tc.get_lpstr r "mode" in
        let style = Tc.get_lpstr r "style" in
        let cc = Tc.get_u8 r "count_callees" = 1 in
        (digest, mode_id, style, cc)
      with
      | key -> Some key
      | exception (Tc.Err _ | Failure _) -> None)

let entries t =
  let now = Unix.gettimeofday () in
  entry_files t
  |> List.filter_map (fun (path, size, mtime) ->
         match read_entry_key path with
         | None -> None
         | Some (digest, mode_id, style, cc) ->
             Some
               {
                 e_path = path;
                 e_digest_hex =
                   (* serve digests are raw MD5; show them hex *)
                   (if String.length digest = 16 then Digest.to_hex digest
                    else digest);
                 e_mode = mode_id;
                 e_style = style;
                 e_count_callees = cc;
                 e_bytes = size;
                 e_age_s = Float.max 0.0 (now -. mtime);
               })
  |> List.sort (fun a b -> compare a.e_age_s b.e_age_s)

let gc t ~max_bytes = locked t (fun () -> sweep_to t max_bytes)

let clear t =
  let files = entry_files t in
  List.iter (fun (path, _, _) -> remove_entry path) files;
  List.length files

(* Checksum walk: every entry is fully hash-checked (not decoded — the
   walk must not need the program parser to agree, only the bytes to be
   intact); corrupt ones are deleted. *)
let verify t =
  let kept = ref 0 and deleted = ref 0 in
  List.iter
    (fun (path, _, _) ->
      match read_entry_key path with
      | Some _ -> incr kept
      | None ->
          remove_entry path;
          incr deleted)
    (entry_files t);
  (!kept, !deleted)
