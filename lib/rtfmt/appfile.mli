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

(** {1 Diagnostic (spec) parsing}

    [parse] fails fast: the first problem aborts with an exception.  The
    spec path instead tokenizes the file into {!Rtlb.Validate.task_spec} /
    {!Rtlb.Validate.edge_spec} declarations — keeping source lines and
    tolerating semantic errors — so {!check} can report {e every} problem
    at once. *)

type spec = {
  spec_tasks : Rtlb.Validate.task_spec list;
  spec_edges : Rtlb.Validate.edge_spec list;
  spec_system : Rtlb.System.t option;
  spec_source : string;  (** The original text, for the window phase. *)
}

val parse_spec : string -> spec
(** Tokenize without constructing the application.
    @raise Parse_error only on syntax-level problems (unknown directive,
      malformed [key=value], non-integer fields, missing required keys). *)

val parse_spec_file : string -> spec
(** [parse_spec] on the file read to its end, as {!parse_file} reads it.
    @raise Parse_error and [Sys_error]. *)

val check : spec -> Rtlb.Validate.diag list
(** {!Rtlb.Validate.check_spec} over the declarations; when that finds no
    errors, the application is built and {!Rtlb.Validate.check_windows}
    appends the EST/LCT-phase diagnostics (with source lines; unrolled
    periodic jobs [t@k] report the line of the declaring task).  Anything
    the strict parse still rejects becomes an [E100] diagnostic — this
    function never raises on any input [parse_spec] accepts. *)

val to_string : ?system:Rtlb.System.t -> Rtlb.App.t -> string
(** Render an application (and optionally a system) in the same format;
    [parse (to_string app)] reconstructs the application. *)
