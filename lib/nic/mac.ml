type t = {
  engine : Sim.Engine.t;
  pipeline_delay : Sim.Units.duration;
  sink : Net.Frame.t -> unit;
  mutable frames : int;
  mutable bytes : int;
}

let create engine ?(pipeline_delay = 300) ~sink () =
  if pipeline_delay < 0 then invalid_arg "Mac.create: negative delay";
  { engine; pipeline_delay; sink; frames = 0; bytes = 0 }

let rx t frame =
  t.frames <- t.frames + 1;
  t.bytes <- t.bytes + Net.Frame.wire_size frame;
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.pipeline_delay (fun () ->
         t.sink frame))

let frames t = t.frames
let bytes t = t.bytes
