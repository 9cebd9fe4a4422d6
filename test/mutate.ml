(* Input mutation for the parser and decoder fuzz properties: one to
   four byte flips, token drops, token swaps, structural-character
   insertions and truncations of a well-formed seed text. *)

let structural = "()\"\\ \n;"

let mutate st text =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let tokens s = List.filter (( <> ) "") (String.split_on_char ' ' s) in
  let lines s = String.split_on_char '\n' s in
  let unlines = String.concat "\n" in
  let op s =
    let n = String.length s in
    match Random.State.int st 5 with
    | 0 when n > 0 ->
      let b = Bytes.of_string s in
      Bytes.set b (Random.State.int st n) (Char.chr (Random.State.int st 256));
      Bytes.to_string b
    | 1 ->
      (* drop one token of one line *)
      let ls = lines s in
      let i = Random.State.int st (List.length ls) in
      unlines
        (List.mapi
           (fun k l ->
             let ts = tokens l in
             if k <> i || ts = [] then l
             else
               let d = Random.State.int st (List.length ts) in
               String.concat " " (List.filteri (fun j _ -> j <> d) ts))
           ls)
    | 2 ->
      (* swap two tokens anywhere in the text *)
      let ls = List.map tokens (lines s) in
      let all = List.concat ls in
      if all = [] then s
      else
        let x = pick all and y = pick all in
        unlines
          (List.map
             (fun ts ->
               String.concat " "
                 (List.map
                    (fun t -> if t = x then y else if t = y then x else t)
                    ts))
             ls)
    | 3 ->
      (* insert one delimiter, quote, escape or separator *)
      let i = Random.State.int st (n + 1) in
      let c = structural.[Random.State.int st (String.length structural)] in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | _ -> String.sub s 0 (Random.State.int st (n + 1))
  in
  let rec go k s = if k = 0 then s else go (k - 1) (op s) in
  go (1 + Random.State.int st 4) text

(* [prop ~count ~name seeds accepts] — every mutation of one of
   [seeds] is accepted ([accepts] returns normally; any exception it
   lets through fails the property) within one second *)
let prop ?(count = 2000) ~name seeds accepts =
  let seeds = Array.of_list seeds in
  let gen st = mutate st seeds.(Random.State.int st (Array.length seeds)) in
  QCheck.Test.make ~count ~name
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun text ->
      let t0 = Unix.gettimeofday () in
      accepts text;
      Unix.gettimeofday () -. t0 < 1.0)
