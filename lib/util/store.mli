(** Content-addressed persistent result store — a campaign directory.

    A [Store] is a durable directory meant to outlive any number of
    runs: results accumulate append-only across processes and are
    shared by key, so two campaigns (or a campaign and a direct
    sweep) that need the same simulated point compute it once. It is
    the one place a campaign or a CLI sweep ([--store DIR]) persists
    to.

    Layout under the store directory, single-file mode (the default):

    - [records.jsonl] — a {!Checkpoint} record file: one record per
      completed point, replayed on first touch and appended to,
      hex-float payloads, flushed per record, truncated-final-line
      tolerance, domain-safe. Every record is stamped with the engine
      identity of the binary that produced it ({!Build_info.identity}
      unless overridden), so stale-engine results are detectable. The
      record files are the whole store: record counts and engines are
      read from them, never from a summary.
    - [name] — the store's name, written once when the directory is
      created ([O_EXCL]; a concurrent creator that loses the race reads
      the winner's) and never rewritten. A store created before this
      file existed has an [index.json] summary instead; its ["name"]
      field supplies the name once, when [name] is first written, and
      [index.json] itself is never written again.
    - [store.lock] — advisory inter-process lockfile: every record
      append ({!put}, {!memo}, {!merge}) holds a [lockf] region on it,
      so concurrent processes sharing the directory append whole
      records.

    Sharded mode ([open_ ~shards:n] with [n >= 2], or autodetected on
    reopen) replaces the single [records.jsonl] with
    [shards/<xx>/records.jsonl], where a record's shard is the first
    two hex digits of its content digest modulo the shard count — a
    pure function of the key, so every process routes identically and
    {!merge} puts a record where a later lookup looks for it. The shard
    count is pinned at creation in [shards/.count] (written once, like
    [name]) and reopening with a different count is refused. A
    single-file store is the one-shard case whose shard directory is
    the store root; every shard, that one included, opens on first
    touch.

    The sweep layers ([?store] on [Border.search], Table 1, the planes,
    Shmoo and the campaign runner) read and write their memos through
    {!find}/{!put}/{!memo}, so each memo is routed by its own key like
    any other record.

    Records are keyed by {!Checkpoint.digest_key} of a printed key
    ([Sim_config.key]: layer, physics, stress, defect, fields) — the
    content address. {!put} may overwrite (last record
    wins on reload), which lets failure markers be superseded by later
    successes while successes themselves are never recomputed.

    Activity feeds the [util.checkpoint.*] telemetry counters (loads,
    appends and {!memo}'s hits and misses), plus [util.store.merge_*]
    for {!merge}. *)

type t

(** [open_ ?engine ?shards ~name dir] opens (creating if needed) the
    store directory [dir]. Existing records are loaded when their shard
    is first touched; new records append. [name] is written to the
    [name] file when [dir] is created; an existing store keeps the name
    it was created with, whatever [name] is given.
    [engine] (default {!Build_info.identity}) is stamped onto every
    record written through this handle.

    [shards >= 2] creates a fresh store sharded that many ways; [shards]
    absent (or [<= 1]) creates single-file. An existing store's layout
    always wins on reopen: a sharded directory reopens sharded at its
    pinned count regardless of [shards] (a {e different} explicit count
    raises [Invalid_argument]), and asking for shards on an existing
    single-file store raises [Invalid_argument]. *)
val open_ : ?engine:string -> ?shards:int -> name:string -> string -> t

(** [is_store dir] holds when [dir] holds a store's record file, name
    file or shard directory; {!open_} would create one anywhere else. *)
val is_store : string -> bool

val dir : t -> string

(** [name t] is the name the store was created with (see {!open_}). *)
val name : t -> string

(** [engine t] is the identity stamped on records this handle writes. *)
val engine : t -> string

(** [shards t] is the pinned shard count, or [0] for a single-file
    store. *)
val shards : t -> int

(** [entries t] is the number of distinct keys held (all engines),
    counted from the records; this opens every shard that has records
    on disk. *)
val entries : t -> int

(** [find t ~key] looks up the raw (undigested) descriptor [key]. *)
val find : t -> key:string -> string option

(** [put t ~key ?descr ?overwrite value] records a completed point
    under descriptor [key] and flushes, holding the inter-process store
    lock across the append. Default first-wins; with [overwrite] the
    last record wins (used for failure markers). *)
val put : t -> key:string -> ?descr:string -> ?overwrite:bool -> string -> unit

(** Raised by {!memo} on a store switched to {!replay_only} for a key
    it does not hold; carries the record's description (or its key). *)
exception Missing of string

(** [replay_only t] switches [t] to replay: from then on {!memo} on a
    key the store does not hold raises {!Missing} instead of computing
    it, so a sweep run against [t] simulates nothing ([campaign diff]
    reads a [table1] store this way). *)
val replay_only : t -> unit

(** [memo t ~key ?descr ~encode ~decode f] is the per-point resume
    hook of every sweep layer: the decoded stored value of [key] if
    present (a [util.checkpoint.hits] count), else [f ()] recorded
    through {!put} (a [misses] count). A stored payload [decode] refuses
    (corrupt or foreign) counts on [util.checkpoint.skipped_records] and
    is recomputed and overwritten, so the next replay reads the repaired
    record. *)
val memo :
  t ->
  key:string ->
  ?descr:string ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  (unit -> 'a) ->
  'a

(** [engines t] scans the record files and returns the distinct engine
    identity strings found with their record counts, most frequent
    first — the staleness report: more than one entry means the store
    mixes results from different builds. Records written before engine
    stamping existed count under ["unknown"]. *)
val engines : t -> (string * int) list

(** What {!merge} did, per source key. *)
type merge_stats = { added : int; replaced : int; kept : int }

(** [merge ~src ~dst] unions [src] into [dst] by content address,
    appending through [dst]'s handle (so an open destination sees the
    merged records immediately, and the inter-process lock is held per
    appended record). Winner rules per key present in both:

    - identical payloads — [dst] kept (counted [kept]);
    - differing payloads — the [src] copy wins {e only} when it was
      produced by the engine identity [dst]'s handle stamps (the
      current build) and the [dst] copy was not (counted [replaced]);
      every other conflict keeps [dst] (counted [kept]).

    Keys absent from [dst] are appended (counted [added]). A copied
    record keeps its {e original} engine stamp, so staleness remains
    detectable after any number of merges. [src]'s records are read via
    raw file scans and never written; opening [src] as a store did
    create its [store.lock], and its [name] if it had none. *)
val merge : src:t -> dst:t -> merge_stats

(** [close t] closes the record channel(s) and the lockfile. Every
    record was flushed when it was appended, so nothing else is
    written. *)
val close : t -> unit
