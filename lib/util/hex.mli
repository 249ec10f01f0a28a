(** Strict fixed-width hexadecimal fields.

    Every hex field this code base writes has a fixed width and case —
    float bit patterns as [%016Lx], percent-escapes as [%%%02X] — so a
    reader can demand exactly that form. [Int64.of_string ("0x" ^ s)]
    cannot: it also takes underscores, a sign, a second radix prefix and
    any width, which let a malformed field parse to a different value. *)

val parse : ?upper:bool -> digits:int -> string -> int64 option
(** [parse ~digits s] is the value of [s] when [s] is exactly [digits]
    hex digits ([1 <= digits <= 16]), letters lowercase, or uppercase
    when [upper] — the form [Printf.sprintf "%0*Lx"] (["%0*LX"]) writes.
    Anything else is [None]. *)
