% Fixed: indexing a scalar inside a store's subscript, `y(x(2)) = 5`,
% returned the scalar itself in Jit and Falcon, so they stored y(2)
% where every other mode raised the out-of-bounds error for x(2).
% Variable classification never walked an indexed target's
% subscripts, so `x` stayed in an F register.
% entry: f0
% arg: scalar 2.0
function r = f0(a)
x = a;
y = zeros(1, 3);
y(x(2)) = 5;
r = y;
