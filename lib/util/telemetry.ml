(* Counters, histograms, spans. The design centre is the DISABLED path:
   every probe starts with [Atomic.get enabled_flag] and a branch, so an
   instrumented hot loop (a Newton iteration, an accepted transient
   step) pays a few nanoseconds when nobody is watching. The bench
   harness measures this and guards it (`bench guards`).

   Handles are registered globally at [make] time so a snapshot can walk
   every metric in the process without the instrumented modules knowing
   about each other. Registration takes a mutex, but it happens once per
   metric per process (module initialization), never on the hot path. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled on = Atomic.set enabled_flag on

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  (* [id] numbers the counters in registration order, from 0: a
     {!Tally} keeps one plain int per id *)
  type t = { c_name : string; cell : int Atomic.t; id : int }

  (* newest first; an immutable list behind a ref, so a reader that
     cannot take the lock (a freshly forked child) still sees a
     consistent list *)
  let registry : t list ref = ref []
  let registry_lock = Mutex.create ()

  let make name =
    Mutex.protect registry_lock (fun () ->
        match List.find_opt (fun c -> c.c_name = name) !registry with
        | Some c -> c
        | None ->
          let c =
            { c_name = name; cell = Atomic.make 0; id = List.length !registry }
          in
          registry := c :: !registry;
          c)

  let incr c = if Atomic.get enabled_flag then Atomic.incr c.cell

  let add c n =
    if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell n)

  let value c = Atomic.get c.cell
  let name c = c.c_name
  let reset c = Atomic.set c.cell 0
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* log-spaced bins; one short lock per observation keeps sum/min/max
     coherent without per-field atomics. An observation is orders of
     magnitude cheaper than the simulation work it measures. *)
  type t = {
    h_name : string;
    id : int;  (* registration order, from 0, as for counters *)
    unit_ : string;
    lo : float;
    log_ratio : float;  (* bin width in log space *)
    edges : float array;
        (* [edges.(k - 1)] is the least float that [bin_index] puts in
           bin [k] or above: the lock-free path bins by comparison *)
    bins : int array;
    lock : Mutex.t;
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let registry : t list ref = ref []
  let registry_lock = Mutex.create ()

  let bin_index_of ~lo ~log_ratio ~buckets v =
    if v <= lo then 0
    else Int.min (buckets - 1) (int_of_float (log (v /. lo) /. log_ratio))

  (* the least float in bin [k] or above, found from the closed form
     by stepping one float at a time until [bin_index_of] changes its
     verdict, so that comparing against it reproduces the log formula
     bit for bit *)
  let edge ~lo ~log_ratio ~buckets k =
    let bin = bin_index_of ~lo ~log_ratio ~buckets in
    let c = ref (lo *. exp (log_ratio *. float_of_int k)) in
    while bin !c >= k do c := Float.pred !c done;
    while bin !c < k do c := Float.succ !c done;
    !c

  let make ?(unit_ = "") ~lo ~hi ~buckets name =
    if not (lo > 0.0 && hi > lo && buckets >= 1) then
      invalid_arg "Telemetry.Histogram.make: need 0 < lo < hi, buckets >= 1";
    Mutex.protect registry_lock (fun () ->
        match List.find_opt (fun h -> h.h_name = name) !registry with
        | Some h -> h
        | None ->
          let log_ratio = log (hi /. lo) /. float_of_int buckets in
          let h =
            { h_name = name; id = List.length !registry; unit_; lo; log_ratio;
              edges =
                Array.init (buckets - 1) (fun k ->
                    edge ~lo ~log_ratio ~buckets (k + 1));
              bins = Array.make buckets 0; lock = Mutex.create ();
              count = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity }
          in
          registry := h :: !registry;
          h)

  let bin_index h v =
    bin_index_of ~lo:h.lo ~log_ratio:h.log_ratio ~buckets:(Array.length h.bins)
      v

  (* [bin_index h v] by binary search over [h.edges]: no [log] *)
  let[@inline] bin_of_edges h v =
    let e = h.edges in
    let lo = ref 0 and hi = ref (Array.length e) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if v >= Array.unsafe_get e mid then lo := mid + 1 else hi := mid
    done;
    !lo

  let observe h v =
    if Atomic.get enabled_flag then
      Mutex.protect h.lock (fun () ->
          let i = bin_index h v in
          h.bins.(i) <- h.bins.(i) + 1;
          h.count <- h.count + 1;
          h.sum <- h.sum +. v;
          if v < h.min_v then h.min_v <- v;
          if v > h.max_v then h.max_v <- v)

  let count h = h.count
  let name h = h.h_name
  let bins h = Mutex.protect h.lock (fun () -> Array.copy h.bins)

  (* upper edge of bin [i], the value reported for quantiles landing
     there *)
  let bin_hi h i = h.lo *. exp (h.log_ratio *. float_of_int (i + 1))

  let quantile h q =
    if h.count = 0 then 0.0
    else begin
      let rank =
        Int.max 1 (int_of_float (ceil (q *. float_of_int h.count)))
      in
      let rec walk i cum =
        if i >= Array.length h.bins then h.max_v
        else
          let cum = cum + h.bins.(i) in
          if cum >= rank then Float.min (bin_hi h i) h.max_v else walk (i + 1) cum
      in
      walk 0 0
    end

  let reset h =
    Mutex.protect h.lock (fun () ->
        Array.fill h.bins 0 (Array.length h.bins) 0;
        h.count <- 0;
        h.sum <- 0.0;
        h.min_v <- infinity;
        h.max_v <- neg_infinity)

  let time_ms h f =
    if Atomic.get enabled_flag then begin
      let t0 = now () in
      let y = f () in
      observe h (1e3 *. (now () -. t0));
      y
    end
    else f ()
end

(* ------------------------------------------------------------------ *)
(* Tallies                                                             *)
(* ------------------------------------------------------------------ *)

module Tally = struct
  (* one histogram's lock-free bins; [stats] holds sum, min and max in
     a flat float array, where a store boxes nothing; [last] is the bin
     of the last sample, which the next one most often shares *)
  type local = {
    bins : int array;
    stats : float array;
    mutable n : int;
    mutable last : int;
  }

  type t = { counts : int array; locals : local option array }

  let create () =
    { counts = Array.make (List.length !Counter.registry) 0;
      locals = Array.make (List.length !Histogram.registry) None }

  (* a counter made after [create] has no cell here and takes the
     atomic path *)
  let[@inline] add t (c : Counter.t) n =
    if c.id < Array.length t.counts then
      Array.unsafe_set t.counts c.id (Array.unsafe_get t.counts c.id + n)
    else Counter.add c n

  let[@inline] incr t c = add t c 1

  let local t (h : Histogram.t) =
    match t.locals.(h.id) with
    | Some l -> l
    | None ->
      let l =
        { bins = Array.make (Array.length h.bins) 0;
          stats = [| 0.0; infinity; neg_infinity |]; n = 0; last = 0 }
      in
      t.locals.(h.id) <- Some l;
      l

  let[@inline] record l (h : Histogram.t) v =
    let e = h.edges and b = l.last in
    let i =
      if (b = 0 || v >= Array.unsafe_get e (b - 1))
         && (b = Array.length e || v < Array.unsafe_get e b)
      then b
      else begin
        let i = Histogram.bin_of_edges h v in
        l.last <- i;
        i
      end
    in
    Array.unsafe_set l.bins i (Array.unsafe_get l.bins i + 1);
    l.n <- l.n + 1;
    let st = l.stats in
    st.(0) <- st.(0) +. v;
    if v < st.(1) then st.(1) <- v;
    if v > st.(2) then st.(2) <- v

  (* both take their sample unboxed: a float argument to a function in
     another module is boxed at the call *)
  let observe_at t (h : Histogram.t) a i =
    if Atomic.get enabled_flag then
      if h.id < Array.length t.locals then record (local t h) h a.(i)
      else Histogram.observe h a.(i)

  let observe_int t (h : Histogram.t) n =
    if Atomic.get enabled_flag then
      if h.id < Array.length t.locals then
        record (local t h) h (float_of_int n)
      else Histogram.observe h (float_of_int n)

  let merge (h : Histogram.t) l =
    Mutex.protect h.lock (fun () ->
        Array.iteri (fun i n -> h.bins.(i) <- h.bins.(i) + n) l.bins;
        h.count <- h.count + l.n;
        h.sum <- h.sum +. l.stats.(0);
        if l.stats.(1) < h.min_v then h.min_v <- l.stats.(1);
        if l.stats.(2) > h.max_v then h.max_v <- l.stats.(2))

  let flush t =
    if Atomic.get enabled_flag then begin
      List.iter
        (fun (c : Counter.t) ->
          if c.id < Array.length t.counts && t.counts.(c.id) <> 0 then
            Counter.add c t.counts.(c.id))
        !Counter.registry;
      List.iter
        (fun (h : Histogram.t) ->
          if h.id < Array.length t.locals then
            match t.locals.(h.id) with
            | Some l when l.n > 0 -> merge h l
            | Some _ | None -> ())
        !Histogram.registry
    end;
    Array.fill t.counts 0 (Array.length t.counts) 0;
    Array.fill t.locals 0 (Array.length t.locals) None
end

(* ------------------------------------------------------------------ *)
(* Spans and sinks                                                     *)
(* ------------------------------------------------------------------ *)

type attr = Int of int | Float of float | Str of string | Bool of bool

type event = {
  name : string;
  ts : float;
  dur_s : float;
  domain : int;
  attrs : (string * attr) list;
}

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let attr_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Bool b -> string_of_bool b

let attr_pretty = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.4g" f
  | Str s -> s
  | Bool b -> string_of_bool b

let event_jsonl ev =
  let attrs =
    match ev.attrs with
    | [] -> ""
    | kvs ->
      Printf.sprintf ",\"attrs\":{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\":%s" (json_escape k) (attr_json v))
              kvs))
  in
  Printf.sprintf "{\"ts\":%.6f,\"name\":\"%s\",\"dur_ms\":%.6g,\"domain\":%d%s}"
    ev.ts (json_escape ev.name) (1e3 *. ev.dur_s) ev.domain attrs

module Sink = struct
  (* [emit = None] marks the null sink so [with_span] can skip the whole
     timing path with one physical comparison *)
  type t = { emit : (event -> unit) option; close : unit -> unit }

  let null = { emit = None; close = (fun () -> ()) }

  let stderr_pretty =
    {
      emit =
        Some
          (fun ev ->
            Printf.eprintf "[trace] %-28s %10.3f ms  d%d%s\n%!" ev.name
              (1e3 *. ev.dur_s) ev.domain
              (match ev.attrs with
              | [] -> ""
              | kvs ->
                "  "
                ^ String.concat " "
                    (List.map
                       (fun (k, v) -> k ^ "=" ^ attr_pretty v)
                       kvs)));
      close = (fun () -> ());
    }

  let jsonl oc =
    {
      emit = Some (fun ev -> output_string oc (event_jsonl ev ^ "\n"));
      close = (fun () -> flush oc);
    }

  let jsonl_file path =
    let oc = open_out path in
    {
      emit = Some (fun ev -> output_string oc (event_jsonl ev ^ "\n"));
      close = (fun () -> close_out oc);
    }

  let custom emit = { emit = Some emit; close = (fun () -> ()) }
end

let current_sink = Atomic.make Sink.null
let emit_lock = Mutex.create ()

let set_sink s =
  let old = Atomic.exchange current_sink s in
  old.Sink.close ()

let close_sink () = set_sink Sink.null

let emit ev =
  match (Atomic.get current_sink).Sink.emit with
  | None -> ()
  | Some f -> Mutex.protect emit_lock (fun () -> f ev)

let no_attrs () = []

let with_span ?(attrs = no_attrs) name f =
  if
    (not (Atomic.get enabled_flag))
    || (Atomic.get current_sink).Sink.emit == None
  then f ()
  else begin
    let t0 = now () in
    let finish extra =
      emit
        {
          name;
          ts = t0;
          dur_s = now () -. t0;
          domain = (Domain.self () :> int);
          attrs = attrs () @ extra;
        }
    in
    match f () with
    | r ->
      finish [];
      r
    | exception e ->
      finish [ ("error", Str (Printexc.to_string e)) ];
      raise e
  end

let configure_from_env () =
  match Sys.getenv_opt "DRAMSTRESS_TRACE" with
  | None | Some ("" | "off" | "0" | "false" | "no") -> ()
  | Some ("stderr" | "pretty") ->
    set_enabled true;
    set_sink Sink.stderr_pretty
  | Some path ->
    set_enabled true;
    set_sink (Sink.jsonl_file path)

(* ------------------------------------------------------------------ *)
(* Counter deltas between processes                                    *)
(* ------------------------------------------------------------------ *)

(* the counter values at the last reading, by id; read without the
   registry lock, which a forked child may have inherited held *)
type mark = { mutable seen : int array }

let counter_values counters =
  let a = Array.make (List.length counters) 0 in
  List.iter (fun (c : Counter.t) -> a.(c.id) <- Counter.value c) counters;
  a

let mark () = { seen = counter_values !Counter.registry }

let deltas_since m =
  let counters = !Counter.registry in
  let now = counter_values counters in
  let seen = m.seen in
  m.seen <- now;
  List.filter_map
    (fun (c : Counter.t) ->
      let before = if c.id < Array.length seen then seen.(c.id) else 0 in
      let d = now.(c.id) - before in
      if d <> 0 then Some (c.c_name, d) else None)
    counters
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let add_deltas ds =
  List.iter (fun (name, n) -> Counter.add (Counter.make name) n) ds

(* ------------------------------------------------------------------ *)
(* Snapshot and export                                                 *)
(* ------------------------------------------------------------------ *)

type hist_summary = {
  h_unit : string;
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_mean : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

type snapshot = {
  counters : (string * int) list;
  histograms : (string * hist_summary) list;
}

let snapshot () =
  let counters =
    Mutex.protect Counter.registry_lock (fun () ->
        List.map (fun c -> (Counter.name c, Counter.value c)) !Counter.registry)
  in
  let histograms =
    Mutex.protect Histogram.registry_lock (fun () -> !Histogram.registry)
    |> List.map (fun h ->
           Mutex.protect h.Histogram.lock (fun () ->
               let empty = h.Histogram.count = 0 in
               ( Histogram.name h,
                 {
                   h_unit = h.Histogram.unit_;
                   h_count = h.Histogram.count;
                   h_sum = h.Histogram.sum;
                   h_min = (if empty then 0.0 else h.Histogram.min_v);
                   h_max = (if empty then 0.0 else h.Histogram.max_v);
                   h_mean =
                     (if empty then 0.0
                      else h.Histogram.sum /. float_of_int h.Histogram.count);
                   h_p50 = Histogram.quantile h 0.50;
                   h_p90 = Histogram.quantile h 0.90;
                   h_p99 = Histogram.quantile h 0.99;
                 } )))
  in
  let by_name (a, _) (b, _) = String.compare a b in
  { counters = List.sort by_name counters;
    histograms = List.sort by_name histograms }

let reset () =
  Mutex.protect Counter.registry_lock (fun () ->
      List.iter Counter.reset !Counter.registry);
  Mutex.protect Histogram.registry_lock (fun () -> !Histogram.registry)
  |> List.iter Histogram.reset

let render_table snap =
  let buf = Buffer.create 1024 in
  if snap.counters <> [] then begin
    Buffer.add_string buf "counters\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-42s %12d\n" name v))
      snap.counters
  end;
  if snap.histograms <> [] then begin
    Buffer.add_string buf
      "histograms                                        count       mean \
       p50        p90        p99        max\n";
    List.iter
      (fun (name, s) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-42s %10d %10.4g %10.4g %10.4g %10.4g %10.4g %s\n"
             name s.h_count s.h_mean s.h_p50 s.h_p90 s.h_p99 s.h_max s.h_unit))
      snap.histograms
  end;
  Buffer.contents buf

let to_json ?(extra = []) snap =
  let counters =
    String.concat ",\n"
      (List.map
         (fun (name, v) -> Printf.sprintf "    \"%s\": %d" (json_escape name) v)
         snap.counters)
  in
  let histograms =
    String.concat ",\n"
      (List.map
         (fun (name, s) ->
           Printf.sprintf
             "    \"%s\": { \"unit\": \"%s\", \"count\": %d, \"sum\": %.6g, \
              \"min\": %.6g, \"max\": %.6g, \"mean\": %.6g, \"p50\": %.6g, \
              \"p90\": %.6g, \"p99\": %.6g }"
             (json_escape name) (json_escape s.h_unit) s.h_count s.h_sum s.h_min
             s.h_max s.h_mean s.h_p50 s.h_p90 s.h_p99)
         snap.histograms)
  in
  let extra =
    String.concat ""
      (List.map (fun (k, json) -> Printf.sprintf ",\n  \"%s\": %s" (json_escape k) json) extra)
  in
  Printf.sprintf "{\n  \"counters\": {\n%s\n  },\n  \"histograms\": {\n%s\n  }%s\n}\n"
    counters histograms extra
