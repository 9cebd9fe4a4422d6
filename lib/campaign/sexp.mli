(** The one s-expression syntax of the campaign layer: manifests
    ({!Manifest}), service frames ({!Protocol}) and sandbox tasks
    ({!Sandbox}) are all read and printed here.

    Atoms are bare words or double-quoted strings with C-style escapes
    (backslash before [n], [t] or [r] is a newline, tab or carriage
    return; before any other character, that character itself). A [;]
    outside a quoted string starts a comment that runs to the end of
    the line. *)

type t = Atom of string | List of t list

(** [to_string x] renders [x] on one line. Atoms that are empty or
    contain whitespace, parens, quotes, backslashes or [;] render
    quoted, so {!of_string} reads every rendering back to [x]. *)
val to_string : t -> string

(** [parse_all s] reads every top-level form of [s], or the 1-based
    line and message of the first syntax error. *)
val parse_all : string -> (t list, int * string) result

(** [of_string s] reads exactly one form (plus surrounding whitespace
    and comments). *)
val of_string : string -> (t, string) result
