(* Content-addressed persistent result store: a directory holding one
   (or, sharded, many) append-only Checkpoint files plus the write-once
   store name. See store.mli for the layout contract.

   A single-file store is one shard whose directory is the store root;
   every shard, that one included, opens lazily on first touch.

   Concurrency model, from inner to outer:

   - each Checkpoint handle is domain-safe on its own (internal mutex);
   - [shard_lock] serializes lazy shard opening within this process;
   - [io_lock] + an advisory [Unix.lockf] region on [store.lock]
     serialize record appends across *processes* sharing the directory
     (lockf record locks are per-process, so the process-local mutex
     must wrap the lockf section — two domains of one process both
     "hold" the same process lock otherwise). *)

module Tel = Telemetry

let records_file = "records.jsonl"
let name_file = "name"
let legacy_index_file = "index.json"
let lock_file = "store.lock"
let shards_dirname = "shards"
let shard_count_file = ".count"

let c_hits = Tel.Counter.make "util.checkpoint.hits"
let c_misses = Tel.Counter.make "util.checkpoint.misses"
let c_skipped_records = Tel.Counter.make "util.checkpoint.skipped_records"
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

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* [write_once path contents] creates [path] holding [contents ()] and
   returns it. If [path] exists — an earlier open, or a concurrent
   creator that won the O_EXCL race — its contents win instead (ours
   only while the winner has not written them yet). *)
let write_once path contents =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
  | fd ->
    let s = contents () in
    let oc = Unix.out_channel_of_descr fd in
    output_string oc s;
    close_out oc;
    s
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> (
    match read_file path with
    | Some s when s <> "" -> s
    | Some _ | None -> contents ())

let int_of_file_string s = int_of_string_opt (String.trim s)

type t = {
  dir : string;
  name : string;
  engine : string;
  shards : int;
  (* one slot per shard; a single-file store ([shards = 0]) has one,
     rooted at [dir] *)
  slots : Checkpoint.t option array;
  shard_lock : Mutex.t;
  io_lock : Mutex.t;
  lock_fd : Unix.file_descr;
  mutable closed : bool;
  mutable replay_only : bool;
}

exception Missing of string

let () =
  Printexc.register_printer (function
    | Missing what -> Some ("the store holds no record for " ^ what)
    | _ -> None)

let shard_dir t ix =
  if t.shards = 0 then t.dir
  else
    Filename.concat (Filename.concat t.dir shards_dirname) (Printf.sprintf "%02x" ix)

(* route by the first two hex characters of the content digest, so a
   record's shard is a pure function of its key — every process, and
   {!merge}, routes it to the same shard *)
let shard_of_digest count digest =
  let prefix =
    if String.length digest >= 2 then
      int_of_string_opt ("0x" ^ String.sub digest 0 2)
    else None
  in
  (match prefix with Some p -> p | None -> Hashtbl.hash digest) mod count

let is_store dir =
  List.exists
    (fun f -> Sys.file_exists (Filename.concat dir f))
    [ records_file; name_file; shards_dirname ]

let open_ ?engine ?shards ~name dirpath =
  let engine =
    match engine with Some e -> e | None -> Build_info.identity
  in
  mkdir_p dirpath;
  (* read before the shard directory: a fresh sharded store pins its
     count before it writes its name, so a concurrent opener that sees
     the name also sees the shards *)
  let existing_single =
    Sys.file_exists (Filename.concat dirpath records_file)
    || Sys.file_exists (Filename.concat dirpath name_file)
  in
  (* the shard count is pinned at creation in shards/.count: routing is
     digest mod count, so reopening with a different count would
     silently split every key's history in two *)
  let sh_dir = Filename.concat dirpath shards_dirname in
  let count_file = Filename.concat sh_dir shard_count_file in
  let existing_sharded =
    if Sys.file_exists sh_dir && Sys.is_directory sh_dir then
      Option.bind (read_file count_file) int_of_file_string
    else None
  in
  let count =
    match (existing_sharded, shards) with
    | Some n, None -> n
    | Some n, Some m when m = n || m <= 1 && n >= 1 -> n
    | Some n, Some m ->
      invalid_arg
        (Printf.sprintf
           "Store.open_: %s is sharded %d ways; cannot reopen with shards=%d"
           dirpath n m)
    | None, None -> 0
    | None, Some m when m <= 1 -> 0
    | None, Some m ->
      if existing_single then
        invalid_arg
          (Printf.sprintf
             "Store.open_: %s is a single-file store; cannot reopen sharded"
             dirpath)
      else begin
        mkdir_p sh_dir;
        let won = write_once count_file (fun () -> string_of_int m) in
        Option.value ~default:m (int_of_file_string won)
      end
  in
  (* a store keeps the name it was created with, whatever [name] a later
     open passes; one created before the name file existed takes it
     from its index.json, read here once and never written *)
  let name =
    write_once (Filename.concat dirpath name_file) (fun () ->
        Option.bind
          (read_file (Filename.concat dirpath legacy_index_file))
          (fun ix -> Checkpoint.field ix "name")
        |> Option.value ~default:name)
  in
  let lock_fd =
    Unix.openfile
      (Filename.concat dirpath lock_file)
      [ Unix.O_RDWR; Unix.O_CREAT ]
      0o644
  in
  {
    dir = dirpath;
    name;
    engine;
    shards = count;
    slots = Array.make (max 1 count) None;
    shard_lock = Mutex.create ();
    io_lock = Mutex.create ();
    lock_fd;
    closed = false;
    replay_only = false;
  }

let dir t = t.dir
let name t = t.name
let engine t = t.engine
let shards t = t.shards

(* advisory inter-process exclusion around appends. lockf locks are
   owned by the process, not the thread, so the process-local [io_lock]
   must serialize domains around the region — otherwise a second domain
   would "acquire" a lock its process already holds and the two would
   interleave freely. *)
let with_flock t f =
  Mutex.protect t.io_lock (fun () ->
      Unix.lockf t.lock_fd Unix.F_LOCK 0;
      Fun.protect
        ~finally:(fun () ->
          try Unix.lockf t.lock_fd Unix.F_ULOCK 0
          with Unix.Unix_error _ -> ())
        f)

let shard_checkpoint t ix =
  Mutex.protect t.shard_lock (fun () ->
      match t.slots.(ix) with
      | Some ck -> ck
      | None ->
        let dirpath = shard_dir t ix in
        mkdir_p dirpath;
        let ck =
          Checkpoint.open_
            ~extra:[ ("engine", t.engine) ]
            (Filename.concat dirpath records_file)
        in
        t.slots.(ix) <- Some ck;
        ck)

let route_digest t digest =
  shard_checkpoint t (shard_of_digest (Array.length t.slots) digest)

let records_path t ix = Filename.concat (shard_dir t ix) records_file

let entries t =
  let sum = ref 0 in
  Array.iteri
    (fun ix slot ->
      match slot with
      | Some ck -> sum := !sum + Checkpoint.entries ck
      | None ->
        (* only open shards that actually hold records *)
        if Sys.file_exists (records_path t ix) then
          sum := !sum + Checkpoint.entries (shard_checkpoint t ix))
    t.slots;
  !sum

let find_digest t d = Checkpoint.find (route_digest t d) d

let find t ~key = find_digest t (Checkpoint.digest_key key)

let replay_only t = t.replay_only <- true

(* every record reaches its digest's shard through here, under the
   inter-process lock *)
let append t d ?descr ?overwrite ?extra value =
  let ck = route_digest t d in
  with_flock t (fun () ->
      Checkpoint.record ck ~key:d ?descr ?overwrite ?extra value)

let put t ~key ?descr ?overwrite value =
  append t (Checkpoint.digest_key key) ?descr ?overwrite value

let memo t ~key ?descr ~encode ~decode f =
  let d = Checkpoint.digest_key key in
  let payload = find_digest t d in
  match Option.bind payload decode with
  | Some v ->
    Tel.Counter.incr c_hits;
    v
  | None ->
    (* a stored payload the decoder refused is a corrupt/foreign record:
       count it and REPAIR it — without [overwrite] the recompute would
       never reach the file (the key is already held) and every future
       resume would recompute it again *)
    let corrupt = payload <> None in
    if corrupt then Tel.Counter.incr c_skipped_records;
    Tel.Counter.incr c_misses;
    if t.replay_only then
      raise (Missing (match descr with Some d -> d | None -> key));
    let v = f () in
    append t d ?descr ~overwrite:corrupt (encode v);
    v

let record_files t =
  List.init (Array.length t.slots) (records_path t)
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
        append dst key ?descr ~extra:stamp v;
        incr added
      | Some (dv, _, _) when dv = v -> incr kept
      | Some (_, deng, _) ->
        let src_is_current = eng = Some dst.engine in
        let dst_is_current = deng = Some dst.engine in
        if src_is_current && not dst_is_current then begin
          append dst key ?descr ~overwrite:true ~extra:stamp v;
          incr replaced
        end
        else incr kept)
    smap;
  Tel.Counter.add c_merge_added !added;
  Tel.Counter.add c_merge_replaced !replaced;
  Tel.Counter.add c_merge_kept !kept;
  { added = !added; replaced = !replaced; kept = !kept }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter (Option.iter Checkpoint.close) t.slots;
    Unix.close t.lock_fd
  end
