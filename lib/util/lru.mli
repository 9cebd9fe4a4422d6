(** Bounded least-recently-used cache.

    A hash table paired with an intrusive recency list; {!find} and
    {!add} are O(1) amortized. When the cache is full, adding a new key
    silently evicts the least recently used entry.

    Keys are compared with structural equality and hashed with
    [Hashtbl.hash]; avoid keys containing functions or cyclic values.
    The cache is not synchronized — guard shared instances with a mutex
    when used from several domains. *)

type ('k, 'v) t

(** [create ?capacity ()] makes an empty cache (default capacity 256).
    Raises [Invalid_argument] if [capacity < 1]. *)
val create : ?capacity:int -> unit -> ('k, 'v) t

(** [find c k] returns the cached value and marks it most recently used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [mem c k] probes membership without touching recency. *)
val mem : ('k, 'v) t -> 'k -> bool

(** [add c k v] inserts or overwrites the binding and marks it most
    recently used, evicting the LRU entry when at capacity. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

(** [evictions c] counts entries silently dropped by capacity pressure
    since creation or {!reset_stats}. *)
val evictions : ('k, 'v) t -> int

(** [reset_stats c] zeroes the eviction count. *)
val reset_stats : ('k, 'v) t -> unit

(** [clear c] drops every entry (the eviction count is kept). *)
val clear : ('k, 'v) t -> unit
