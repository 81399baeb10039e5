(** A small line-oriented text format for applications and system models,
    used by the CLI and the examples.

    {v
    # comment / blank lines are ignored
    task T1 compute=3 deadline=36 proc=P1 res=r1          # release=0 default
    task T2 compute=6 release=2 deadline=36 proc=P1 res=r1,r2 preemptive
    edge T1 T2 4                                          # message size 4
    shared P1=5 P2=4 r1=3                                 # shared model costs
    node N1 proc=P1 res=r1 cost=10                        # or dedicated nodes
    node N2 proc=P1 cost=6
    v}

    A file may declare either one [shared] line or one or more [node]
    lines (not both).  Task ids are assigned in declaration order.
    Lines end at ['\n']; spaces, tabs and carriage returns all separate
    words, so CRLF and tab-separated files read like LF, space-separated
    ones. *)

type t = { app : Rtlb.App.t; system : Rtlb.System.t option }

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse : string -> t
(** Parse the full text of an application file.
    @raise Parse_error on malformed input — including semantic problems
      (duplicate task names, edges between undeclared tasks, self loops,
      duplicate edges, precedence cycles), each located at the offending
      source line.  Never raises [Dag.Cycle] or [Invalid_argument]. *)

val parse_file : string -> t
(** [parse] on the file read to its end, so a pipe or [/dev/stdin] reads
    as a regular file does.  @raise Parse_error and [Sys_error]. *)

val check : string -> Rtlb.Validate.diag list
(** Every problem of an application file, as {!Rtlb.Validate}
    diagnostics sorted by {!Rtlb.Validate.by_line}, from one read of the
    text: the scan [parse] makes, then the declaration checks on its
    columns ([E101], [E103]-[E106], the declared-window [E102], [W201],
    [W202]), each at its source line.  When they find no error, the
    instance is built from the same columns as [parse] builds it and
    {!Rtlb.Validate.check_windows} adds the EST/LCT-phase diagnostics; a
    one-shot task is reported at its line, an unrolled periodic job
    [t@k] at the line of its task [t].  A text that does not scan, a
    bad system declaration and anything the build still rejects become
    one [E100].  Never raises. *)

val to_string : ?system:Rtlb.System.t -> Rtlb.App.t -> string
(** Render an application (and optionally a system) in the same format;
    [parse (to_string app)] reconstructs the application. *)
