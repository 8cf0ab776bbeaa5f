% Fixed: a definition made only on the `continue` path did not reach
% the next iteration's top, so the loop-carried use of `i` resolved to
% the builtin sqrt(-1) in compiled code while the interpreter added 5
% on every iteration after the first.
% entry: f0
% arg: scalar 3.0
function y = f0(n)
y = 0;
for k = 1:n
  if k > 1
    y = y + i;
  end
  if k > 0
    i = 5;
    continue;
  end
end
