(* Content-addressed persistent result store: a directory holding one
   (or, sharded, many) append-only Checkpoint files plus small
   rewritable index summaries. See store.mli for the layout contract.

   Concurrency model, from inner to outer:

   - each Checkpoint handle is domain-safe on its own (internal mutex);
   - [shard_lock] serializes lazy shard opening within this process;
   - [io_lock] + an advisory [Unix.lockf] region on [store.lock]
     serialize record appends and index rewrites across *processes*
     sharing the directory (lockf record locks are per-process, so the
     process-local mutex must wrap the lockf section — two domains of
     one process both "hold" the same process lock otherwise). *)

module Tel = Telemetry

let records_file = "records.jsonl"
let index_file = "index.json"
let lock_file = "store.lock"
let shards_dirname = "shards"
let shard_count_file = ".count"

(* index rewritten from the append-only log because the two disagreed —
   the signature of a kill between the last append and close *)
let c_recovered = Tel.Counter.make "util.store.index_recovered"

(* staged index temp files left behind by a killed writer, removed on
   the next open of the directory *)
let c_orphans = Tel.Counter.make "util.store.orphan_tmp_removed"

let c_merge_added = Tel.Counter.make "util.store.merge_added"
let c_merge_replaced = Tel.Counter.make "util.store.merge_replaced"
let c_merge_kept = Tel.Counter.make "util.store.merge_kept"

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.file_exists path -> ()
  end

type index = {
  ix_name : string;
  ix_engine : string;
  ix_records : int;
  ix_shards : int;
}

(* index.json is one flat object; reuse the tolerant checkpoint field
   parser for the string fields and scan by hand for the int fields *)
let index dirpath =
  let path = Filename.concat dirpath index_file in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | contents ->
    let line = String.concat " " (String.split_on_char '\n' contents) in
    let int_field name =
      let marker = Printf.sprintf "\"%s\":" name in
      let ln = String.length line and lm = String.length marker in
      let rec find i =
        if i + lm > ln then None
        else if String.sub line i lm = marker then begin
          let j = ref (i + lm) in
          while !j < ln && line.[!j] = ' ' do incr j done;
          let k = ref !j in
          while !k < ln && (match line.[!k] with '0' .. '9' -> true | _ -> false) do
            incr k
          done;
          int_of_string_opt (String.sub line !j (!k - !j))
        end
        else find (i + 1)
      in
      find 0
    in
    (match (Checkpoint.field line "name", int_field "records") with
    | Some ix_name, Some ix_records ->
      let ix_engine =
        Option.value ~default:"unknown" (Checkpoint.field line "engine")
      in
      let ix_shards = Option.value ~default:0 (int_field "shards") in
      Some { ix_name; ix_engine; ix_records; ix_shards }
    | _, _ -> None)

(* Unique staging file for the atomic index rewrite. A fixed "tmp" name
   next to the target lets two concurrent writers clobber each other's
   staged bytes before the rename; PID + per-process counter + O_EXCL
   guarantees each writer stages privately. Orphans from killed writers
   match the "index.json.tmp" prefix and are swept on open. *)
let tmp_seq = Atomic.make 0

let with_unique_tmp path write =
  let rec attempt () =
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    match Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> attempt ()
    | fd ->
      let oc = Unix.out_channel_of_descr fd in
      (try
         write oc;
         flush oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      close_out oc;
      (* atomic publish: readers see the old or the new file, never half *)
      Sys.rename tmp path
  in
  attempt ()

(* a staging file is an orphan only if its writer is gone: the name
   embeds the writer's pid, and a pid that still answers [kill 0] (or
   refuses with EPERM) marks a live process mid-rewrite in another
   process sharing the store — deleting its staging file would make its
   rename fail. Unparseable names are legacy junk and removed. *)
let tmp_writer_alive n =
  match String.split_on_char '.' n with
  (* index.json.tmp.<pid>.<seq> *)
  | [ _; _; _; pid; _ ] -> (
    match int_of_string_opt pid with
    | None -> false
    | Some pid -> (
      match Unix.kill pid 0 with
      | () -> true
      | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
      | exception Unix.Unix_error (_, _, _) -> false))
  | _ -> false

let clean_orphan_tmps dirpath =
  match Sys.readdir dirpath with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun n ->
        if
          String.starts_with ~prefix:(index_file ^ ".tmp") n
          && not (tmp_writer_alive n)
        then begin
          (try Sys.remove (Filename.concat dirpath n) with Sys_error _ -> ());
          Tel.Counter.incr c_orphans
        end)
      names

let write_index_at ~dirpath ~name ~engine ~records ~shards =
  let path = Filename.concat dirpath index_file in
  (* no space after the colons: {!Checkpoint.field} reads these back *)
  let json =
    Printf.sprintf
      "{\n\
      \  \"name\":\"%s\",\n\
      \  \"engine\":\"%s\",\n\
      \  \"records\":%d,\n\
      \  \"shards\":%d\n\
       }\n"
      (Tel.json_escape name) (Tel.json_escape engine) records shards
  in
  with_unique_tmp path (fun oc -> output_string oc json)

type backend =
  | Single of Checkpoint.t
  | Sharded of { count : int; slots : Checkpoint.t option array }

type t = {
  dir : string;
  name : string;
  engine : string;
  backend : backend;
  shard_lock : Mutex.t;
  io_lock : Mutex.t;
  lock_fd : Unix.file_descr;
  mutable closed : bool;
}

let shard_dir dir ix =
  Filename.concat (Filename.concat dir shards_dirname) (Printf.sprintf "%02x" ix)

(* route by the first two hex characters of the content digest, so a
   record's shard is a pure function of its key — every process agrees,
   and a point's border result and its probe memos land together *)
let shard_of_digest count digest =
  let prefix =
    if String.length digest >= 2 then
      int_of_string_opt ("0x" ^ String.sub digest 0 2)
    else None
  in
  (match prefix with Some p -> p | None -> Hashtbl.hash digest) mod count

(* open one checkpoint directory (the store root in single mode, or a
   shard), recovering its index from the log when the two disagree *)
let open_checkpoint ~engine ~name ~shards dirpath =
  mkdir_p dirpath;
  clean_orphan_tmps dirpath;
  let prior = index dirpath in
  let ck =
    Checkpoint.open_
      ~extra:[ ("engine", engine) ]
      (Filename.concat dirpath records_file)
  in
  (match prior with
  | Some ix when ix.ix_records <> Checkpoint.entries ck ->
    (* the log is the source of truth; the index only summarizes it *)
    Tel.Counter.incr c_recovered;
    write_index_at ~dirpath ~name ~engine ~records:(Checkpoint.entries ck)
      ~shards
  | Some _ | None -> ());
  ck

(* the shard count is pinned at creation in shards/.count (and echoed in
   index.json): routing is digest mod count, so reopening with a
   different count would silently split every key's history in two *)
let create_shard_count sh_dir n =
  let cf = Filename.concat sh_dir shard_count_file in
  match Unix.openfile cf [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
  | fd ->
    let oc = Unix.out_channel_of_descr fd in
    output_string oc (string_of_int n ^ "\n");
    close_out oc;
    n
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> (
    (* lost the creation race: defer to whoever won *)
    match In_channel.with_open_text cf In_channel.input_all with
    | s -> Option.value ~default:n (int_of_string_opt (String.trim s))
    | exception Sys_error _ -> n)

let read_shard_count dirpath =
  let cf = Filename.concat (Filename.concat dirpath shards_dirname) shard_count_file in
  match In_channel.with_open_text cf In_channel.input_all with
  | s -> int_of_string_opt (String.trim s)
  | exception Sys_error _ -> (
    match index dirpath with
    | Some ix when ix.ix_shards > 0 -> Some ix.ix_shards
    | Some _ | None -> None)

let open_ ?engine ?shards ~name dirpath =
  let engine =
    match engine with Some e -> e | None -> Build_info.identity
  in
  mkdir_p dirpath;
  clean_orphan_tmps dirpath;
  (* a store keeps the name it was created with: reopening under another
     name must not relabel it when the index is rewritten *)
  let name = match index dirpath with Some ix -> ix.ix_name | None -> name in
  let sh_dir = Filename.concat dirpath shards_dirname in
  let existing_sharded =
    if Sys.file_exists sh_dir && Sys.is_directory sh_dir then
      read_shard_count dirpath
    else None
  in
  let existing_single =
    Sys.file_exists (Filename.concat dirpath records_file)
  in
  let backend_kind =
    match (existing_sharded, shards) with
    | Some n, None -> `Sharded n
    | Some n, Some m when m = n || m <= 1 && n >= 1 -> `Sharded n
    | Some n, Some m ->
      invalid_arg
        (Printf.sprintf
           "Store.open_: %s is sharded %d ways; cannot reopen with shards=%d"
           dirpath n m)
    | None, (None | Some 1) -> `Single
    | None, Some m when m <= 0 -> `Single
    | None, Some m ->
      if existing_single then
        invalid_arg
          (Printf.sprintf
             "Store.open_: %s is a single-file store; cannot reopen sharded"
             dirpath)
      else `Fresh_sharded m
  in
  let lock_fd =
    Unix.openfile
      (Filename.concat dirpath lock_file)
      [ Unix.O_RDWR; Unix.O_CREAT ]
      0o644
  in
  let backend =
    match backend_kind with
    | `Single ->
      Single (open_checkpoint ~engine ~name ~shards:0 dirpath)
    | `Sharded n -> Sharded { count = n; slots = Array.make n None }
    | `Fresh_sharded n ->
      mkdir_p sh_dir;
      let n = create_shard_count sh_dir n in
      Sharded { count = n; slots = Array.make n None }
  in
  let t =
    {
      dir = dirpath;
      name;
      engine;
      backend;
      shard_lock = Mutex.create ();
      io_lock = Mutex.create ();
      lock_fd;
      closed = false;
    }
  in
  (match backend with
  | Single ck ->
    write_index_at ~dirpath ~name ~engine ~records:(Checkpoint.entries ck)
      ~shards:0
  | Sharded { count; _ } -> (
    (* top-level summary only; shard indexes are written lazily *)
    match index dirpath with
    | Some ix when ix.ix_shards = count -> ()
    | Some _ | None ->
      write_index_at ~dirpath ~name ~engine ~records:0 ~shards:count));
  t

let dir t = t.dir
let name t = t.name
let engine t = t.engine

let shards t =
  match t.backend with Single _ -> 0 | Sharded { count; _ } -> count

(* advisory inter-process exclusion around appends and index rewrites.
   lockf locks are owned by the process, not the thread, so the
   process-local [io_lock] must serialize domains around the region —
   otherwise a second domain would "acquire" a lock its process already
   holds and the two would interleave freely. *)
let with_flock t f =
  Mutex.protect t.io_lock (fun () ->
      Unix.lockf t.lock_fd Unix.F_LOCK 0;
      Fun.protect
        ~finally:(fun () ->
          try Unix.lockf t.lock_fd Unix.F_ULOCK 0
          with Unix.Unix_error _ -> ())
        f)

let shard_checkpoint t ix =
  match t.backend with
  | Single ck -> ck
  | Sharded { slots; _ } ->
    Mutex.protect t.shard_lock (fun () ->
        match slots.(ix) with
        | Some ck -> ck
        | None ->
          let ck =
            open_checkpoint ~engine:t.engine ~name:t.name ~shards:0
              (shard_dir t.dir ix)
          in
          slots.(ix) <- Some ck;
          ck)

let route_digest t digest =
  match t.backend with
  | Single ck -> ck
  | Sharded { count; _ } -> shard_checkpoint t (shard_of_digest count digest)

let checkpoint_for t ~key = route_digest t (Checkpoint.digest_key key)

let entries t =
  match t.backend with
  | Single ck -> Checkpoint.entries ck
  | Sharded { count; slots } ->
    let sum = ref 0 in
    for ix = 0 to count - 1 do
      match slots.(ix) with
      | Some ck -> sum := !sum + Checkpoint.entries ck
      | None ->
        (* only open shards that actually hold records *)
        if Sys.file_exists (Filename.concat (shard_dir t.dir ix) records_file)
        then sum := !sum + Checkpoint.entries (shard_checkpoint t ix)
    done;
    !sum

let find t ~key =
  let d = Checkpoint.digest_key key in
  Checkpoint.find (route_digest t d) d

let put t ~key ?descr ?overwrite value =
  let d = Checkpoint.digest_key key in
  let ck = route_digest t d in
  with_flock t (fun () -> Checkpoint.record ck ~key:d ?descr ?overwrite value)

let memo t ~key ?descr ~encode ~decode f =
  let d = Checkpoint.digest_key key in
  Checkpoint.memo (Some (route_digest t d)) ~key ?descr ~encode ~decode f

let record_files t =
  match t.backend with
  | Single _ -> [ Filename.concat t.dir records_file ]
  | Sharded { count; _ } ->
    List.init count (fun ix -> Filename.concat (shard_dir t.dir ix) records_file)
    |> List.filter Sys.file_exists

let engines t =
  let tally = Hashtbl.create 4 in
  List.iter
    (fun file ->
      Checkpoint.scan file (fun ~descr:_ ~engine ~key:_ ~value:_ ->
          let e = Option.value ~default:"unknown" engine in
          Hashtbl.replace tally e
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally e))))
    (record_files t);
  Hashtbl.fold (fun e n acc -> (e, n) :: acc) tally []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

type merge_stats = { added : int; replaced : int; kept : int }

(* union by content address, engine-identity staleness deciding
   conflicts: a key present in both stores keeps the destination's
   record unless the source copy was produced by the engine the
   destination handle itself stamps (i.e. the current build) and the
   destination copy was not — then the current-engine result wins. The
   copied record keeps its original engine stamp (the ?extra override),
   so staleness stays detectable after any number of merges. *)
let merge ~src ~dst =
  let scan_map t =
    let m = Hashtbl.create 256 in
    List.iter
      (fun file ->
        Checkpoint.scan file (fun ~descr ~engine ~key ~value ->
            (* replay in file order: last record for a key wins, same as
               the load path *)
            Hashtbl.replace m key (value, engine, descr)))
      (record_files t);
    m
  in
  let smap = scan_map src and dmap = scan_map dst in
  let added = ref 0 and replaced = ref 0 and kept = ref 0 in
  Hashtbl.iter
    (fun key (v, eng, descr) ->
      let stamp = [ ("engine", Option.value ~default:"unknown" eng) ] in
      match Hashtbl.find_opt dmap key with
      | None ->
        let ck = route_digest dst key in
        with_flock dst (fun () ->
            Checkpoint.record ck ~key ?descr ~extra:stamp v);
        incr added
      | Some (dv, _, _) when dv = v -> incr kept
      | Some (_, deng, _) ->
        let src_is_current = eng = Some dst.engine in
        let dst_is_current = deng = Some dst.engine in
        if src_is_current && not dst_is_current then begin
          let ck = route_digest dst key in
          with_flock dst (fun () ->
              Checkpoint.record ck ~key ?descr ~overwrite:true ~extra:stamp v);
          incr replaced
        end
        else incr kept)
    smap;
  Tel.Counter.add c_merge_added !added;
  Tel.Counter.add c_merge_replaced !replaced;
  Tel.Counter.add c_merge_kept !kept;
  { added = !added; replaced = !replaced; kept = !kept }

(* total for the top-level index of a sharded store: live counts for
   open shards, on-disk summaries (or a scan when even those are
   missing) for the rest *)
let total_records t =
  match t.backend with
  | Single ck -> Checkpoint.entries ck
  | Sharded { count; slots } ->
    let sum = ref 0 in
    for ix = 0 to count - 1 do
      match slots.(ix) with
      | Some ck -> sum := !sum + Checkpoint.entries ck
      | None -> (
        let sd = shard_dir t.dir ix in
        match index sd with
        | Some i -> sum := !sum + i.ix_records
        | None ->
          let keys = Hashtbl.create 64 in
          Checkpoint.scan (Filename.concat sd records_file)
            (fun ~descr:_ ~engine:_ ~key ~value:_ ->
              Hashtbl.replace keys key ());
          sum := !sum + Hashtbl.length keys)
    done;
    !sum

let close t =
  if not t.closed then begin
    t.closed <- true;
    with_flock t (fun () ->
        match t.backend with
        | Single ck ->
          write_index_at ~dirpath:t.dir ~name:t.name ~engine:t.engine
            ~records:(Checkpoint.entries ck) ~shards:0;
          Checkpoint.close ck
        | Sharded { count; slots } ->
          for ix = 0 to count - 1 do
            match slots.(ix) with
            | Some ck ->
              write_index_at ~dirpath:(shard_dir t.dir ix) ~name:t.name
                ~engine:t.engine ~records:(Checkpoint.entries ck) ~shards:0;
              Checkpoint.close ck
            | None -> ()
          done;
          write_index_at ~dirpath:t.dir ~name:t.name ~engine:t.engine
            ~records:(total_records t) ~shards:count);
    Unix.close t.lock_fd
  end
