(** The word scanner behind the line-oriented text formats
    ({!Problem_format}, {!Pricebook}).

    A text is a sequence of lines separated by ['\n']. On each line,
    [#] starts a comment that runs to the end of the line, and words
    are separated by runs of spaces and tabs; every other byte
    (['\r'] included) belongs to a word. The scanner walks the text
    once with a cursor and records each word's bounds in place: it
    copies a word only when asked for it as a string. *)

type t

(** [create ~what ~fold_case text] starts before the first line.
    [what] prefixes every error message. With [fold_case], the words
    read as their ASCII lowercase, as if the text had been lowercased
    first. *)
val create : what:string -> fold_case:bool -> string -> t

(** [next_line t] moves to the next line and splits it into words;
    [false] once every line has been read. A text of [n] newlines has
    [n + 1] lines. *)
val next_line : t -> bool

(** The 1-based number of the current line. *)
val line : t -> int

(** [count t] is the number of words on the current line. *)
val count : t -> int

(** [word t k] copies the [k]-th word (from 0) of the current line.
    It, {!is}, {!is_keyword} and {!int} address the first 8 words of a
    line; [count] itself is exact. *)
val word : t -> int -> string

(** [is t k w] tests the [k]-th word against [w] without copying it. *)
val is : t -> int -> string -> bool

(** [is_keyword t k kw] tests the [k]-th word against the lowercase
    keyword [kw], ignoring ASCII case whatever [fold_case] is. *)
val is_keyword : t -> int -> string -> bool

(** [int t k] reads the [k]-th word as [int_of_string] does.
    @raise Failure ["<what>: line <n>: expected an integer, got <word>"]
    otherwise. *)
val int : t -> int -> int

(** [fail t msg] raises [Failure "<what>: line <n>: <msg>"] for the
    current line; [fail_at t n msg] names line [n] instead. *)
val fail : t -> string -> 'a

val fail_at : t -> int -> string -> 'a
