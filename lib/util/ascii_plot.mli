(** ASCII chart rendering used to emit the paper's figures as text.

    Supports multiple named series, linear or logarithmic x axis, and
    horizontal marker lines (e.g. [V_mp], [V_sa]). Output is a plain
    string suitable for terminal display and for diffing in tests. *)

type axis = Linear | Log10

type series = {
  label : string;
  glyph : char;
  pts : (float * float) list;
}

(** [series ?glyph label pts] builds a series; the default glyph is the
    first character of [label], or ['*'] if empty. *)
val series : ?glyph:char -> string -> (float * float) list -> series

(** [render ?x_axis ?x_label ?y_label ?hlines ~title ss] draws all
    series on a shared canvas of 72 x 22 characters of plotting area.
    [hlines] are [(label, y)] dashed horizontal markers. Ranges come
    from the data (and marker lines). *)
val render :
  ?x_axis:axis ->
  ?x_label:string ->
  ?y_label:string ->
  ?hlines:(string * float) list ->
  title:string ->
  series list ->
  string

(** [render_grid ~title ~rows ~cols cell] draws a character grid (used for
    Shmoo plots): [cell r c] supplies the glyph, [rows]/[cols] carry axis
    tick labels. *)
val render_grid :
  title:string ->
  rows:(string * int) ->
  cols:(string * int) ->
  row_label:(int -> string) ->
  col_label:(int -> string) ->
  (int -> int -> char) ->
  string
