(** The record file of a campaign store ({!Store}): incremental JSONL,
    one record per completed sweep point.

    Long sweeps (planes, Table 1, Shmoo grids, border searches) write
    one record per completed point, flushed immediately, so an
    interrupted run can restart from where it left off: opening the file
    replays the completed points into memory, and {!Store.memo} serves
    them without recomputation. A store keeps this file as
    [DIR/records.jsonl] (one per shard when sharded); {!Store} is the
    only writer — sweep layers never hold a handle of their own.

    Records are [{"descr": ..., "key": ..., "value": ...}] where [key]
    is a stable digest of a canonical point descriptor ({!digest_key})
    and [value] is the layer's own compact payload encoding (hex floats,
    so decoded results are bit-identical to computed ones). A store
    stamps an [engine] field as well; unknown fields are ignored on
    load. A truncated final line — the signature of a kill mid-write —
    is skipped on load.

    Handles are domain-safe: {!find}/{!record} take an internal lock, so
    parallel sweep workers ({!Par.parallel_map}) may share one file.

    When {!Telemetry} is enabled, activity feeds the
    [util.checkpoint.records] / [loaded] / [malformed_lines] /
    [skipped_records] counters ({!Store.memo} adds [hits] and
    [misses]). [malformed_lines] counts lines that are not records at
    all (the truncated-final-line signature); [skipped_records] counts
    lines that {e looked} like records but were unusable — a mid-file
    line whose field extraction raised on load, or a stored payload a
    {!Store.memo} decoder refused. Both are skipped, never fatal: the
    records behind a sick line still replay. *)

type t

(** [open_ ?extra path] opens the record file at [path], creating it if
    needed. Existing records are replayed first and new records are
    appended behind them; nothing is ever truncated. [extra] is a list
    of constant [(field, value)] string pairs stamped onto every record
    line written through this handle — e.g. the engine identity of the producing
    binary ({!Build_info.identity}), so stale results are detectable
    after an engine upgrade. Loading tolerates (and ignores) unknown
    fields, so stores written with different [extra] sets interoperate. *)
val open_ : ?extra:(string * string) list -> string -> t

(** [entries t] is the number of distinct completed points held. *)
val entries : t -> int

(** [find t key] looks up a digest key ({!digest_key}). *)
val find : t -> string -> string option

(** [record t ~key ?descr ?overwrite ?extra value] appends one completed
    point and flushes. Duplicate keys are ignored (first record wins,
    matching what {!find} would have returned) unless [overwrite] is
    set, in which case the new value replaces the table entry and a
    fresh line is appended — on reload the {e last} record for a key
    wins, so the append-only file stays consistent with the in-memory
    view. [extra] overrides the handle's constant stamped fields for
    this one record — how {!Store.merge} preserves the {e original}
    engine identity of a record it copies between stores. *)
val record :
  t ->
  key:string ->
  ?descr:string ->
  ?overwrite:bool ->
  ?extra:(string * string) list ->
  string ->
  unit

(** [close t] closes the underlying channel; further {!record}s update
    only the in-memory table. *)
val close : t -> unit

(** [digest_key descriptor] is the stable hex digest under which a
    point is stored. [descriptor] should canonically encode everything
    the point's result depends on. *)
val digest_key : string -> string

(** [field line name] extracts the value of the top-level string field
    [name] from one JSONL record line, tolerating (and skipping) any
    other fields — the same parser {!open_} uses on load. [None] when
    the field is absent or the line is truncated mid-record. Exposed so
    higher-level stores ({!Store}) and tests can read the stamped
    [extra] fields back. *)
val field : string -> string -> string option

(** [scan path f] reads the records file at [path] without opening a
    handle, calling [f] once per parseable record in file order — the
    raw view, including the stamped [engine] field that the replay
    table drops. Later records for a key follow earlier ones, so a
    last-wins replay can be reproduced by [Hashtbl.replace]-ing in
    order. Missing files are an empty scan; unusable lines are skipped
    (and counted) exactly as {!open_} would. *)
val scan :
  string ->
  (descr:string option ->
  engine:string option ->
  key:string ->
  value:string ->
  unit) ->
  unit
