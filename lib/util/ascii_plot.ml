type axis = Linear | Log10

type series = { label : string; glyph : char; pts : (float * float) list }

let series ?glyph label pts =
  let glyph =
    match glyph with
    | Some g -> g
    | None -> if String.length label > 0 then label.[0] else '*'
  in
  { label; glyph; pts }

let finite v = Float.is_finite v

(* plotting area, characters *)
let width = 72
let height = 22

let render ?(x_axis = Linear) ?(x_label = "") ?(y_label = "") ?(hlines = [])
    ~title ss =
  let tx x = match x_axis with Linear -> x | Log10 -> log10 x in
  let all_pts =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (x, y) ->
            let x' = tx x in
            if finite x' && finite y then Some (x', y) else None)
          s.pts)
      ss
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  if all_pts = [] then begin
    Buffer.add_string buf "  (no data)\n";
    Buffer.contents buf
  end
  else begin
    let xs = List.map fst all_pts and ys0 = List.map snd all_pts in
    let ys = ys0 @ List.map snd hlines in
    let xmin = List.fold_left Float.min (List.hd xs) xs in
    let xmax = List.fold_left Float.max (List.hd xs) xs in
    let ymin = List.fold_left Float.min (List.hd ys) ys in
    let ymax = List.fold_left Float.max (List.hd ys) ys in
    let widen lo hi = if lo = hi then (lo -. 1.0, hi +. 1.0) else (lo, hi) in
    let xmin, xmax = widen xmin xmax in
    let ymin, ymax =
      let lo, hi = widen ymin ymax in
      let m = 0.05 *. (hi -. lo) in
      (lo -. m, hi +. m)
    in
    let canvas = Array.make_matrix height width ' ' in
    let col_of x =
      let c =
        int_of_float
          (Float.round ((x -. xmin) /. (xmax -. xmin) *. float_of_int (width - 1)))
      in
      Int.min (width - 1) (Int.max 0 c)
    in
    let row_of y =
      let r =
        int_of_float
          (Float.round ((ymax -. y) /. (ymax -. ymin) *. float_of_int (height - 1)))
      in
      Int.min (height - 1) (Int.max 0 r)
    in
    (* dashed marker lines first so data overwrites them *)
    let draw_hline y =
      if y >= ymin && y <= ymax then begin
        let r = row_of y in
        for c = 0 to width - 1 do
          if c mod 2 = 0 then canvas.(r).(c) <- '-'
        done
      end
    in
    List.iter (fun (_, y) -> draw_hline y) hlines;
    (* draw each series with simple segment rasterization *)
    let draw_series s =
      let pts =
        List.filter_map
          (fun (x, y) ->
            let x' = tx x in
            if finite x' && finite y then Some (x', y) else None)
          s.pts
      in
      let draw_segment (x0, y0) (x1, y1) =
        let c0 = col_of x0 and c1 = col_of x1 in
        let steps = Int.max 1 (abs (c1 - c0)) in
        for i = 0 to steps do
          let t = float_of_int i /. float_of_int steps in
          let x = x0 +. (t *. (x1 -. x0)) in
          let y = y0 +. (t *. (y1 -. y0)) in
          canvas.(row_of y).(col_of x) <- s.glyph
        done
      in
      let rec walk = function
        | p0 :: (p1 :: _ as rest) ->
          draw_segment p0 p1;
          walk rest
        | [ (x, y) ] -> canvas.(row_of y).(col_of x) <- s.glyph
        | [] -> ()
      in
      walk pts
    in
    List.iter draw_series ss;
    (* y-axis labels on 5 ticks *)
    let label_rows = [ 0; height / 4; height / 2; 3 * height / 4; height - 1 ] in
    let y_of_row r =
      ymax -. (float_of_int r /. float_of_int (height - 1) *. (ymax -. ymin))
    in
    for r = 0 to height - 1 do
      let lbl =
        if List.mem r label_rows then Printf.sprintf "%8.3g |" (y_of_row r)
        else "         |"
      in
      Buffer.add_string buf lbl;
      Buffer.add_string buf (String.init width (fun c -> canvas.(r).(c)));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf ("         +" ^ String.make width '-' ^ "\n");
    let x_of_col c =
      let v = xmin +. (float_of_int c /. float_of_int (width - 1) *. (xmax -. xmin)) in
      match x_axis with Linear -> v | Log10 -> 10.0 ** v
    in
    let tick_cols = [ 0; width / 4; width / 2; 3 * width / 4; width - 1 ] in
    let tick_line = Bytes.make (width + 10) ' ' in
    List.iter
      (fun c ->
        let s = Printf.sprintf "%.3g" (x_of_col c) in
        let start = Int.min (width + 10 - String.length s) (c + 10) in
        Bytes.blit_string s 0 tick_line (Int.max 0 start) (String.length s))
      tick_cols;
    Buffer.add_string buf (Bytes.to_string tick_line);
    Buffer.add_char buf '\n';
    if x_label <> "" || y_label <> "" then
      Buffer.add_string buf
        (Printf.sprintf "          x: %s    y: %s\n" x_label y_label);
    let legend =
      List.map (fun s -> Printf.sprintf "[%c] %s" s.glyph s.label) ss
      @ List.map (fun (l, y) -> Printf.sprintf "[-] %s=%.3g" l y) hlines
    in
    if legend <> [] then begin
      Buffer.add_string buf ("          " ^ String.concat "  " legend);
      Buffer.add_char buf '\n'
    end;
    Buffer.contents buf
  end

let render_grid ~title ~rows:(row_axis, n_rows) ~cols:(col_axis, n_cols)
    ~row_label ~col_label cell =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "  rows: %s (top to bottom), cols: %s\n" row_axis col_axis);
  for r = 0 to n_rows - 1 do
    Buffer.add_string buf (Printf.sprintf "%10s |" (row_label r));
    for c = 0 to n_cols - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_char buf (cell r c)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make (2 * n_cols) '-'));
  (* column labels, vertical footer rows: print a few *)
  let every = Int.max 1 (n_cols / 6) in
  Buffer.add_string buf (Printf.sprintf "%10s  " "");
  for c = 0 to n_cols - 1 do
    if c mod every = 0 then begin
      let s = col_label c in
      Buffer.add_string buf s;
      (* skip columns covered by the label *)
      ()
    end
  done;
  Buffer.add_char buf '\n';
  Buffer.contents buf
