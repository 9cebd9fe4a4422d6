(* Multi-process store tests. These live in their own binary because
   OCaml refuses [Unix.fork] once any domain has ever been spawned in
   the process, and the main suites exercise domain parallelism.
   Nothing here may call [Par.parallel_map] (or anything else that
   spawns a domain) before the forks. *)

module St = Dramstress_util.Store

let with_store_dir f =
  let dir = Filename.temp_file "dramstress_store_mp" "" in
  Sys.remove dir;
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

let wait_ok what pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s process failed" what

(* Two writer processes hammer one store concurrently. The advisory
   lock on [store.lock] keeps their appends from interleaving: every
   record from both must survive, and a reopened handle must count
   them all under the store's name. *)
let two_process_appends ~shards () =
  with_store_dir @@ fun dir ->
  (* pre-create the layout so the children race only on appends, the
     path the lock guards *)
  let s = St.open_ ~engine:"e" ?shards ~name:"mp" dir in
  St.close s;
  let writers = 2 and per_writer = 40 in
  let child i =
    match Unix.fork () with
    | 0 ->
      let code =
        try
          let s = St.open_ ~engine:"e" ~name:"mp" dir in
          for j = 0 to per_writer - 1 do
            St.put s ~key:(Printf.sprintf "c%d-%d" i j) ~descr:"mp" "v"
          done;
          St.close s;
          0
        with _ -> 1
      in
      Unix._exit code
    | pid -> pid
  in
  let pids = List.init writers child in
  List.iter (wait_ok "writer") pids;
  let s = St.open_ ~engine:"e" ~name:"mp" dir in
  Alcotest.(check int) "layout preserved"
    (Option.value shards ~default:0)
    (St.shards s);
  Alcotest.(check int) "every append from both processes survives"
    (writers * per_writer) (St.entries s);
  for i = 0 to writers - 1 do
    for j = 0 to per_writer - 1 do
      Alcotest.(check (option string)) "record intact" (Some "v")
        (St.find s ~key:(Printf.sprintf "c%d-%d" i j))
    done
  done;
  St.close s;
  let s = St.open_ ~engine:"e" ~name:"other" dir in
  Alcotest.(check string) "name agrees" "mp" (St.name s);
  Alcotest.(check int) "reopened count agrees" (writers * per_writer)
    (St.entries s);
  St.close s

let test_two_process_single () = two_process_appends ~shards:None ()
let test_two_process_sharded () = two_process_appends ~shards:(Some 4) ()

(* A writer SIGKILLed mid-stream must cost at most its own unflushed
   tail: the surviving process and a later reopen see every record the
   victim flushed, counted from the records themselves. *)
let test_kill_one_writer () =
  with_store_dir @@ fun dir ->
  let s = St.open_ ~engine:"e" ~shards:4 ~name:"mp" dir in
  St.close s;
  let victim =
    match Unix.fork () with
    | 0 ->
      (try
         let s = St.open_ ~engine:"e" ~name:"mp" dir in
         for j = 0 to 10_000 do
           St.put s ~key:(Printf.sprintf "v-%d" j) "x"
         done;
         St.close s
       with _ -> ());
      Unix._exit 0
    | pid -> pid
  in
  (* wait until the victim demonstrably made progress, then kill it *)
  let progressed () =
    try
      let s = St.open_ ~engine:"e" ~name:"mp" dir in
      let n = St.entries s in
      St.close s;
      n > 0
    with _ -> false
  in
  let rec spin n =
    if n = 0 then Alcotest.fail "victim made no progress"
    else if not (progressed ()) then begin
      Unix.sleepf 0.01;
      spin (n - 1)
    end
  in
  spin 1000;
  Unix.kill victim Sys.sigkill;
  ignore (Unix.waitpid [] victim);
  (* a fresh writer appends on top of the wreckage, then everything
     the victim flushed plus the new record must be readable *)
  let s = St.open_ ~engine:"e" ~name:"mp" dir in
  let survivors = St.entries s in
  Alcotest.(check bool) "flushed records survive the kill" true
    (survivors > 0);
  St.put s ~key:"after-kill" "y";
  St.close s;
  let s = St.open_ ~engine:"e" ~name:"mp" dir in
  Alcotest.(check int) "reopen sees the same records" (survivors + 1)
    (St.entries s);
  Alcotest.(check (option string)) "post-kill append intact" (Some "y")
    (St.find s ~key:"after-kill");
  St.close s

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dramstress_store_procs"
    [
      ( "store-multiprocess",
        [
          tc "two writers, single-file" test_two_process_single;
          tc "two writers, sharded" test_two_process_sharded;
          tc "SIGKILLed writer loses only its tail" test_kill_one_writer;
        ] );
    ]
