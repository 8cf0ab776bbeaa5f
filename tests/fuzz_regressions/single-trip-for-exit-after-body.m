% Pins the block order of the straight-line lowering of `for k = 3:3`:
% the exit block that `break` jumps to must be allocated after the body.
% Linear scan numbers positions in block order and extends intervals
% only over recorded loops, so an exit allocated before the body ends
% the interval of `a` (last read just after the loop) before the body
% runs, and the body's temporaries reuse its register: compiled modes
% then return 158 where the interpreter returns 175.
% entry: f0
% arg: scalar 4.0
function y = f0(n)
y = 0;
t = 0;
for q = 1:n
  t = t + q;
end
b = 0;
a = t * 3;
for k = 3:3
  c = t + 1;
  e = t + 2;
  h = t + 3;
  b = c * e + h;
  if b > 1000
    break;
  end
end
y = y + a + b;
