% Pins the straight-line lowering of a `for` over a literal one-element
% range `c:c`, which the inliner also emits around every early-returning
% callee (`for once = 1:1`). Covered: `break` and `continue` leaving the
% body early, a loop variable reassigned in the body and read after it,
% a single-trip body nested in a real loop whose invariant `c = n * 7`
% the real loop's LICM still hoists, and an early-returning callee
% inlined inside a loop. With n = 4 the result is 83.
% entry: f0
% arg: scalar 4.0
function y = f0(n)
y = 0;
for k = 3:3
  y = y + k;
  if n > 2
    break;
  end
  y = y + 100;
end
for k = 3:3
  if n > 2
    continue;
  end
  y = y + 1000;
end
for k = 3:3
  k = k * n;
end
y = y + k;
s = 0;
for j = 1:n
  for m = 2:2
    c = n * 7;
    if j > 2
      break;
    end
    s = s + c + m;
  end
  s = s + g(j, n);
end
y = y + s;
function r = g(a, b)
r = a;
if a > 1
  r = b - a;
  return;
end
r = r + b;
