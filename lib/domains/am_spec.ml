(* The matcher vocabulary. Descriptions follow the LibASTMatchers reference
   style but deliberately omit the leading "Matches ..." (every entry has
   it, so it carries no discriminating signal for WordToAPI). *)

type kind = Decl | Stmt | Expr | Type
type lit = Lnone | Lstr | Lnum

type spec =
  | Node of { name : string; kind : kind; desc : string }
  | Narrow of { name : string; kinds : kind list; lit : lit; desc : string }
  | Traversal of { name : string; kinds : kind list; arg : kind option; desc : string }

let name = function
  | Node n -> n.name
  | Narrow n -> n.name
  | Traversal t -> t.name

let nd name kind desc = Node { name; kind; desc }
let nw ?(lit = Lnone) name kinds desc = Narrow { name; kinds; lit; desc }
let tr name kinds arg desc = Traversal { name; kinds; arg; desc }

let any = [ Decl; Stmt; Expr; Type ]

(* ------------------------------------------------------------------ *)
(* Declaration node matchers                                          *)
(* ------------------------------------------------------------------ *)
let decl_nodes =
  [
    nd "decl" Decl "any declaration node";
    nd "namedDecl" Decl "a declaration with a name";
    nd "valueDecl" Decl "a declaration of a value such as a variable or function";
    nd "declaratorDecl" Decl "a declarator declaration for fields, variables and functions";
    nd "functionDecl" Decl "a function declaration";
    nd "functionTemplateDecl" Decl "a C++ function template declaration";
    nd "cxxMethodDecl" Decl "a C++ method declaration; a member function of a class";
    nd "cxxConstructorDecl" Decl "a C++ constructor declaration";
    nd "cxxDestructorDecl" Decl "a C++ destructor declaration";
    nd "cxxConversionDecl" Decl "a C++ conversion operator declaration";
    nd "cxxDeductionGuideDecl" Decl "a C++ deduction guide declaration";
    nd "cxxRecordDecl" Decl "a C++ class struct or union declaration";
    nd "recordDecl" Decl "a class struct or union record declaration";
    nd "classTemplateDecl" Decl "a C++ class template declaration";
    nd "classTemplateSpecializationDecl" Decl "a C++ class template specialization declaration";
    nd "classTemplatePartialSpecializationDecl" Decl "a C++ class template partial specialization";
    nd "varDecl" Decl "a variable declaration";
    nd "parmVarDecl" Decl "a parameter declaration of a function";
    nd "fieldDecl" Decl "a field declaration; a member variable of a class";
    nd "indirectFieldDecl" Decl "an indirect field declaration inside an anonymous union";
    nd "enumDecl" Decl "an enum enumeration declaration";
    nd "enumConstantDecl" Decl "an enumerator constant declaration inside an enum";
    nd "typedefDecl" Decl "a typedef declaration";
    nd "typedefNameDecl" Decl "a typedef name declaration including alias declarations";
    nd "typeAliasDecl" Decl "a type alias using declaration";
    nd "typeAliasTemplateDecl" Decl "a type alias template declaration";
    nd "namespaceDecl" Decl "a namespace declaration";
    nd "namespaceAliasDecl" Decl "a namespace alias declaration";
    nd "usingDecl" Decl "a using declaration";
    nd "usingDirectiveDecl" Decl "a using namespace directive declaration";
    nd "unresolvedUsingValueDecl" Decl "an unresolved using value declaration";
    nd "unresolvedUsingTypenameDecl" Decl "an unresolved using typename declaration";
    nd "accessSpecDecl" Decl "an access specifier declaration such as public private or protected";
    nd "friendDecl" Decl "a friend declaration";
    nd "labelDecl" Decl "a label declaration used by goto";
    nd "linkageSpecDecl" Decl "an extern C linkage specification declaration";
    nd "staticAssertDecl" Decl "a static assert declaration";
    nd "tagDecl" Decl "a tag declaration: class struct union or enum";
    nd "templateTypeParmDecl" Decl "a template type parameter declaration";
    nd "templateTemplateParmDecl" Decl "a template template parameter declaration";
    nd "nonTypeTemplateParmDecl" Decl "a non type template parameter declaration";
    nd "decompositionDecl" Decl "a structured binding decomposition declaration";
    nd "bindingDecl" Decl "a binding declaration inside a structured binding";
    nd "blockDecl" Decl "a block declaration; a closure block";
    nd "conceptDecl" Decl "a C++20 concept declaration";
    nd "translationUnitDecl" Decl "the top level translation unit declaration";
    nd "objcInterfaceDecl" Decl "an Objective C interface declaration";
    nd "objcImplementationDecl" Decl "an Objective C implementation declaration";
    nd "objcProtocolDecl" Decl "an Objective C protocol declaration";
    nd "objcCategoryDecl" Decl "an Objective C category declaration";
    nd "objcCategoryImplDecl" Decl "an Objective C category implementation declaration";
    nd "objcMethodDecl" Decl "an Objective C method declaration";
    nd "objcIvarDecl" Decl "an Objective C instance variable declaration";
    nd "objcPropertyDecl" Decl "an Objective C property declaration";
  ]

(* ------------------------------------------------------------------ *)
(* Statement node matchers                                            *)
(* ------------------------------------------------------------------ *)
let stmt_nodes =
  [
    nd "stmt" Stmt "any statement node";
    nd "compoundStmt" Stmt "a compound statement; a block of statements in braces";
    nd "declStmt" Stmt "a declaration statement";
    nd "ifStmt" Stmt "an if statement; a conditional branch";
    nd "forStmt" Stmt "a for loop statement";
    nd "cxxForRangeStmt" Stmt "a C++ range based for loop statement";
    nd "whileStmt" Stmt "a while loop statement";
    nd "doStmt" Stmt "a do while loop statement";
    nd "switchStmt" Stmt "a switch statement";
    nd "switchCase" Stmt "a case or default clause inside a switch statement";
    nd "caseStmt" Stmt "a case clause of a switch statement";
    nd "defaultStmt" Stmt "a default clause of a switch statement";
    nd "breakStmt" Stmt "a break statement";
    nd "continueStmt" Stmt "a continue statement";
    nd "returnStmt" Stmt "a return statement";
    nd "gotoStmt" Stmt "a goto statement";
    nd "labelStmt" Stmt "a label statement that goto can jump to";
    nd "nullStmt" Stmt "an empty null statement";
    nd "asmStmt" Stmt "an inline assembly statement";
    nd "attributedStmt" Stmt "a statement with an attribute";
    nd "cxxTryStmt" Stmt "a C++ try statement for exception handling";
    nd "cxxCatchStmt" Stmt "a C++ catch handler statement";
    nd "cxxThrowExpr" Expr "a C++ throw expression raising an exception";
    nd "coroutineBodyStmt" Stmt "a coroutine body statement";
    nd "coreturnStmt" Stmt "a coroutine co_return statement";
    nd "objcTryStmt" Stmt "an Objective C try statement";
    nd "objcCatchStmt" Stmt "an Objective C catch statement";
    nd "objcFinallyStmt" Stmt "an Objective C finally statement";
    nd "objcThrowStmt" Stmt "an Objective C throw statement";
    nd "objcAutoreleasePoolStmt" Stmt "an Objective C autorelease pool statement";
  ]

(* ------------------------------------------------------------------ *)
(* Expression node matchers                                           *)
(* ------------------------------------------------------------------ *)
let expr_nodes =
  [
    nd "expr" Expr "any expression node";
    nd "callExpr" Expr "a function call expression; an invocation";
    nd "cxxMemberCallExpr" Expr "a C++ member function call expression; a method invocation";
    nd "cxxOperatorCallExpr" Expr "a C++ overloaded operator call expression";
    nd "cudaKernelCallExpr" Expr "a CUDA kernel call expression";
    nd "cxxConstructExpr" Expr "a C++ constructor call expression; construction of an object";
    nd "cxxTemporaryObjectExpr" Expr "a C++ temporary object construction expression";
    nd "cxxNewExpr" Expr "a C++ new expression; a heap allocation";
    nd "cxxDeleteExpr" Expr "a C++ delete expression; a heap deallocation";
    nd "cxxThisExpr" Expr "a C++ this pointer expression";
    nd "declRefExpr" Expr "a reference to a declaration; a use of a variable or function name";
    nd "memberExpr" Expr "a member access expression using dot or arrow";
    nd "cxxDependentScopeMemberExpr" Expr "a dependent scope member access expression";
    nd "unresolvedLookupExpr" Expr "an unresolved lookup expression of an overloaded name";
    nd "unresolvedMemberExpr" Expr "an unresolved member access expression";
    nd "binaryOperator" Expr "a binary operator expression such as plus or assignment";
    nd "cxxRewrittenBinaryOperator" Expr "a C++20 rewritten binary operator such as spaceship comparisons";
    nd "unaryOperator" Expr "a unary operator expression such as negation or increment";
    nd "conditionalOperator" Expr "a conditional ternary operator expression";
    nd "binaryConditionalOperator" Expr "a GNU binary conditional operator expression";
    nd "arraySubscriptExpr" Expr "an array subscript index expression";
    nd "integerLiteral" Expr "an integer literal; a whole number constant";
    nd "floatLiteral" Expr "a float or floating point literal constant";
    nd "fixedPointLiteral" Expr "a fixed point literal constant";
    nd "imaginaryLiteral" Expr "an imaginary number literal constant";
    nd "stringLiteral" Expr "a string literal constant";
    nd "characterLiteral" Expr "a character literal constant";
    nd "cxxBoolLiteral" Expr "a C++ boolean literal true or false";
    nd "cxxNullPtrLiteralExpr" Expr "a C++ nullptr literal expression";
    nd "gnuNullExpr" Expr "a GNU NULL expression";
    nd "userDefinedLiteral" Expr "a user defined literal expression";
    nd "compoundLiteralExpr" Expr "a C99 compound literal expression";
    nd "initListExpr" Expr "an initializer list expression in braces";
    nd "cxxStdInitializerListExpr" Expr "a C++ std initializer list construction expression";
    nd "designatedInitExpr" Expr "a designated initializer expression";
    nd "implicitValueInitExpr" Expr "an implicit value initialization expression";
    nd "lambdaExpr" Expr "a lambda expression; an anonymous closure function";
    nd "castExpr" Expr "any cast expression converting a value to a type";
    nd "explicitCastExpr" Expr "an explicit cast expression written in the source";
    nd "implicitCastExpr" Expr "an implicit cast expression inserted by the compiler";
    nd "cStyleCastExpr" Expr "a C style cast expression in parentheses";
    nd "cxxStaticCastExpr" Expr "a C++ static_cast expression";
    nd "cxxDynamicCastExpr" Expr "a C++ dynamic_cast expression";
    nd "cxxReinterpretCastExpr" Expr "a C++ reinterpret_cast expression";
    nd "cxxConstCastExpr" Expr "a C++ const_cast expression";
    nd "cxxFunctionalCastExpr" Expr "a C++ functional cast expression";
    nd "unaryExprOrTypeTraitExpr" Expr "a sizeof or alignof expression";
    nd "parenExpr" Expr "a parenthesized expression";
    nd "parenListExpr" Expr "a paren list expression";
    nd "exprWithCleanups" Expr "an expression with cleanups attached";
    nd "materializeTemporaryExpr" Expr "a materialized temporary expression";
    nd "cxxBindTemporaryExpr" Expr "a C++ bind temporary expression";
    nd "cxxDefaultArgExpr" Expr "a C++ default argument expression used at a call site";
    nd "cxxUnresolvedConstructExpr" Expr "an unresolved C++ construct expression in a template";
    nd "cxxNoexceptExpr" Expr "a C++ noexcept operator expression";
    nd "cxxFoldExpr" Expr "a C++17 fold expression over a parameter pack";
    nd "atomicExpr" Expr "an atomic builtin expression";
    nd "chooseExpr" Expr "a GNU builtin choose expression";
    nd "constantExpr" Expr "a constant expression node";
    nd "convertVectorExpr" Expr "a convert vector builtin expression";
    nd "coawaitExpr" Expr "a coroutine co_await expression";
    nd "coyieldExpr" Expr "a coroutine co_yield expression";
    nd "addrLabelExpr" Expr "a GNU address of label expression";
    nd "blockExpr" Expr "a block expression; a closure literal";
    nd "genericSelectionExpr" Expr "a C11 generic selection expression";
    nd "opaqueValueExpr" Expr "an opaque value expression";
    nd "predefinedExpr" Expr "a predefined identifier expression such as __func__";
    nd "substNonTypeTemplateParmExpr" Expr "a substituted non type template parameter expression";
    nd "objcMessageExpr" Expr "an Objective C message send expression";
    nd "objcStringLiteral" Expr "an Objective C string literal expression";
  ]

(* ------------------------------------------------------------------ *)
(* Type node matchers                                                 *)
(* ------------------------------------------------------------------ *)
let type_nodes =
  [
    nd "qualType" Type "any qualified type";
    nd "builtinType" Type "a builtin primitive type such as int or double";
    nd "pointerType" Type "a pointer type";
    nd "memberPointerType" Type "a pointer to member type";
    nd "blockPointerType" Type "a block pointer type";
    nd "objcObjectPointerType" Type "an Objective C object pointer type";
    nd "referenceType" Type "a reference type";
    nd "lValueReferenceType" Type "an lvalue reference type";
    nd "rValueReferenceType" Type "an rvalue reference type";
    nd "arrayType" Type "an array type";
    nd "constantArrayType" Type "a constant sized array type";
    nd "incompleteArrayType" Type "an incomplete array type without a size";
    nd "variableArrayType" Type "a variable length array type";
    nd "dependentSizedArrayType" Type "a dependent sized array type in a template";
    nd "functionType" Type "a function type";
    nd "functionProtoType" Type "a function prototype type with parameter types";
    nd "enumType" Type "an enum enumeration type";
    nd "recordType" Type "a record type of a class struct or union";
    nd "tagType" Type "a tag type declared by a class struct union or enum";
    nd "typedefType" Type "a typedef type";
    nd "usingType" Type "a type introduced by a using declaration";
    nd "elaboratedType" Type "an elaborated type with a keyword or qualifier";
    nd "decltypeType" Type "a decltype type";
    nd "autoType" Type "an auto deduced type";
    nd "decayedType" Type "a decayed array or function type";
    nd "parenType" Type "a parenthesized type";
    nd "complexType" Type "a complex number type";
    nd "atomicType" Type "an atomic type";
    nd "templateSpecializationType" Type "a template specialization type";
    nd "templateTypeParmType" Type "a template type parameter type";
    nd "substTemplateTypeParmType" Type "a substituted template type parameter type";
    nd "injectedClassNameType" Type "an injected class name type inside a class template";
    nd "unaryTransformType" Type "a unary type transformation type";
  ]

(* ------------------------------------------------------------------ *)
(* Narrowing matchers                                                 *)
(* ------------------------------------------------------------------ *)
let narrowing =
  [
    nw ~lit:Lstr "hasName" [ Decl ] "the declared name is the given string";
    nw ~lit:Lstr "matchesName" [ Decl ] "the declared name matches the given regular expression";
    nw ~lit:Lstr "hasAnyName" [ Decl ] "the declared name is any of the given strings";
    nw ~lit:Lstr "hasOperatorName" [ Stmt; Expr ] "the operator of the expression has the given spelling";
    nw ~lit:Lstr "hasAnyOperatorName" [ Stmt; Expr ] "the operator spelling is any of the given strings";
    nw ~lit:Lstr "isExpandedFromMacro" any "the node is expanded from the macro with the given name";
    nw ~lit:Lnum "argumentCountIs" [ Expr ] "the call has exactly the given number of arguments";
    nw ~lit:Lnum "parameterCountIs" [ Decl ] "the function has exactly the given number of parameters";
    nw ~lit:Lnum "templateArgumentCountIs" [ Decl; Type ] "the template has the given number of template arguments";
    nw ~lit:Lnum "statementCountIs" [ Stmt ] "the compound statement has the given number of statements";
    nw ~lit:Lnum "hasBitWidth" [ Decl ] "the bit field has the given bit width";
    nw ~lit:Lnum "equals" [ Expr ] "the literal is equal to the given value";
    nw "isDefinition" [ Decl ] "the declaration is also a definition";
    nw "isDeleted" [ Decl ] "the function is deleted";
    nw "isDefaulted" [ Decl ] "the method is defaulted";
    nw "isImplicit" [ Decl; Expr ] "the node was added implicitly by the compiler";
    nw "isExplicit" [ Decl ] "the constructor or conversion is marked explicit";
    nw "isInline" [ Decl ] "the function or namespace is inline";
    nw "isNoReturn" [ Decl ] "the function does not return";
    nw "isNoThrow" [ Decl ] "the function cannot throw; declared noexcept";
    nw "isConstexpr" [ Decl; Stmt ] "the declaration or if statement is constexpr";
    nw "isStaticLocal" [ Decl ] "the variable is a static local variable";
    nw "isExternC" [ Decl ] "the declaration has extern C language linkage";
    nw "isMain" [ Decl ] "the function is the main entry point of the program";
    nw "isVariadic" [ Decl ] "the function is variadic; takes a variable number of arguments";
    nw "isVirtual" [ Decl ] "the method is declared virtual";
    nw "isVirtualAsWritten" [ Decl ] "the method has the virtual keyword written in the source";
    nw "isPure" [ Decl ] "the method is pure virtual; abstract";
    nw "isOverride" [ Decl ] "the method overrides a virtual method of a base class";
    nw "isFinal" [ Decl ] "the method or class is marked final";
    nw "isConst" [ Decl ] "the method is declared const";
    nw "isUserProvided" [ Decl ] "the special member function is user provided; written by the programmer";
    nw "isCopyConstructor" [ Decl ] "the constructor is a copy constructor";
    nw "isMoveConstructor" [ Decl ] "the constructor is a move constructor";
    nw "isDefaultConstructor" [ Decl ] "the constructor is a default constructor taking no arguments";
    nw "isDelegatingConstructor" [ Decl ] "the constructor delegates to another constructor";
    nw "isConverting" [ Decl ] "the constructor is a converting constructor";
    nw "isCopyAssignmentOperator" [ Decl ] "the method is a copy assignment operator";
    nw "isMoveAssignmentOperator" [ Decl ] "the method is a move assignment operator";
    nw "isPublic" [ Decl ] "the declaration has public access";
    nw "isProtected" [ Decl ] "the declaration has protected access";
    nw "isPrivate" [ Decl ] "the declaration has private access";
    nw "isClass" [ Decl ] "the record was declared with the class keyword";
    nw "isStruct" [ Decl ] "the record was declared with the struct keyword";
    nw "isUnion" [ Decl ] "the record was declared with the union keyword";
    nw "isLambda" [ Decl ] "the record is a lambda closure class";
    nw "isTemplateInstantiation" [ Decl ] "the declaration is a template instantiation";
    nw "isExplicitTemplateSpecialization" [ Decl ] "the declaration is an explicit template specialization";
    nw "isInstantiated" [ Decl ] "the declaration is within a template instantiation";
    nw "isInStdNamespace" [ Decl ] "the declaration lives in the std standard namespace";
    nw "isInAnonymousNamespace" [ Decl ] "the declaration lives in an anonymous namespace";
    nw "isAnonymous" [ Decl ] "the namespace or record has no name; anonymous";
    nw "isBitField" [ Decl ] "the field is a bit field";
    nw "isMemberInitializer" [ Decl ] "the constructor initializer initializes a member field";
    nw "isBaseInitializer" [ Decl ] "the constructor initializer initializes a base class";
    nw "isCatchAll" [ Stmt ] "the catch handler catches every exception written with ellipsis";
    nw "isExceptionVariable" [ Decl ] "the variable is a caught exception variable";
    nw "isScoped" [ Decl ] "the enum is a scoped enum class";
    nw "isExpansionInMainFile" any "the node is expanded in the main source file";
    nw "isExpansionInSystemHeader" any "the node is expanded inside a system header";
    nw "isArrow" [ Expr ] "the member access is written with an arrow";
    nw "isAssignmentOperator" [ Stmt; Expr ] "the operator is an assignment operator";
    nw "isComparisonOperator" [ Stmt; Expr ] "the operator is a comparison operator";
    nw "isTypeDependent" [ Expr ] "the expression is type dependent in a template";
    nw "isValueDependent" [ Expr ] "the expression is value dependent in a template";
    nw "isInstantiationDependent" [ Expr ] "the expression is instantiation dependent";
    nw "isListInitialization" [ Expr ] "the construction uses list initialization with braces";
    nw "requiresZeroInitialization" [ Expr ] "the construct expression requires zero initialization";
    nw "usesADL" [ Expr ] "the call was resolved using argument dependent lookup";
    nw "hasStaticStorageDuration" [ Decl ] "the variable has static storage duration";
    nw "hasAutomaticStorageDuration" [ Decl ] "the variable has automatic storage duration";
    nw "hasThreadStorageDuration" [ Decl ] "the variable has thread local storage duration";
    nw "hasLocalStorage" [ Decl ] "the variable has local storage on the stack";
    nw "hasGlobalStorage" [ Decl ] "the variable has global storage";
    nw "hasExternalFormalLinkage" [ Decl ] "the declaration has external formal linkage";
    nw "hasDefaultArgument" [ Decl ] "the parameter has a default argument value";
    nw "hasDynamicExceptionSpec" [ Decl ] "the function has a dynamic exception specification";
    nw "hasTrailingReturn" [ Decl ] "the function has a trailing return type";
    nw "hasInClassInitializer" [ Decl ] "the field has an in class initializer";
    nw "isSignedInteger" [ Type ] "the type is a signed integer type";
    nw "isUnsignedInteger" [ Type ] "the type is an unsigned integer type";
    nw "isInteger" [ Type ] "the type is an integer type";
    nw "isAnyCharacter" [ Type ] "the type is a character type";
    nw "isAnyPointer" [ Type ] "the type is a pointer type";
    nw "booleanType" [ Type ] "the type is the boolean type";
    nw "voidType" [ Type ] "the type is the void type";
    nw "realFloatingPointType" [ Type ] "the type is a real floating point type";
    nw "isConstQualified" [ Type ] "the type is const qualified";
    nw "isVolatileQualified" [ Type ] "the type is volatile qualified";
    nw "hasLocalQualifiers" [ Type ] "the type has local qualifiers";
    nw "isWritten" [ Decl ] "the constructor initializer was written in the source";
    nw "isUnaryFold" [ Expr ] "the fold expression is a unary fold";
    nw "isBinaryFold" [ Expr ] "the fold expression is a binary fold";
    nw "isLeftFold" [ Expr ] "the fold expression is a left fold";
    nw "isRightFold" [ Expr ] "the fold expression is a right fold";
    nw "hasTemplateArgument" [ Decl; Type ] "the template has a template argument at some position";
    nw "hasAnyTemplateArgument" [ Decl; Type ] "some template argument of the template";
    nw "isIntegral" [ Decl ] "the template argument is an integral value";
    nw "nullPointerConstant" [ Expr ] "the expression is a null pointer constant";
    nw "hasCastKind" [ Expr ] "the cast has the given cast kind";
    nw ~lit:Lstr "isDerivedFrom" [ Decl ] "the class is derived from a base class with the given name";
    nw ~lit:Lstr "isSameOrDerivedFrom" [ Decl ] "the class is the named class itself or derived from it";
    nw ~lit:Lstr "isDirectlyDerivedFrom" [ Decl ] "the class is directly derived from a base class with the given name";
  ]

(* ------------------------------------------------------------------ *)
(* Traversal matchers                                                 *)
(* ------------------------------------------------------------------ *)
let traversal =
  [
    tr "has" any None "has a direct child node that the inner matcher describes";
    tr "hasDescendant" any None "contains a descendant node nested anywhere inside";
    tr "forEach" any None "applies the inner matcher to each direct child";
    tr "forEachDescendant" any None "applies the inner matcher to each descendant node";
    tr "hasAncestor" any None "has an ancestor node enclosing this one";
    tr "hasParent" any None "has a direct parent node";
    tr "hasDeclaration" [ Expr; Type; Decl ] (Some Decl) "refers to a declaration that the inner matcher describes; declares";
    tr "hasType" [ Expr; Decl ] (Some Type) "the type of the expression or declaration";
    tr "hasArgument" [ Expr ] (Some Expr) "an argument of the call expression";
    tr "hasAnyArgument" [ Expr ] (Some Expr) "any argument of the call or construct expression";
    tr "hasArgumentOfType" [ Expr ] (Some Type) "the sizeof or alignof argument has the given type";
    tr "callee" [ Expr ] (Some Decl) "the callee declaration the call invokes; calls";
    tr "onImplicitObjectArgument" [ Expr ] (Some Expr) "the implicit object argument of the member call";
    tr "on" [ Expr ] (Some Expr) "the object expression the member call is invoked on";
    tr "thisPointerType" [ Expr ] (Some Type) "the type of the this pointer in the member call";
    tr "hasBody" [ Decl; Stmt ] (Some Stmt) "the body of the function loop or try statement";
    tr "hasAnyBody" [ Decl ] (Some Stmt) "the body of the function or any of its redeclarations";
    tr "hasCondition" [ Stmt; Expr ] (Some Expr) "the condition of the if while for or conditional operator";
    tr "hasThen" [ Stmt ] (Some Stmt) "the then branch of the if statement";
    tr "hasElse" [ Stmt ] (Some Stmt) "the else branch of the if statement";
    tr "hasConditionVariableStatement" [ Stmt ] (Some Stmt) "the condition variable statement of the if";
    tr "hasInitStatement" [ Stmt ] (Some Stmt) "the init statement of the if or switch statement";
    tr "hasLoopInit" [ Stmt ] (Some Stmt) "the initialization statement of the for loop";
    tr "hasIncrement" [ Stmt ] (Some Expr) "the increment expression of the for loop";
    tr "hasLoopVariable" [ Stmt ] (Some Decl) "the loop variable of the range based for loop";
    tr "hasRangeInit" [ Stmt ] (Some Expr) "the range initializer of the range based for loop";
    tr "hasLHS" [ Stmt; Expr ] (Some Expr) "the left hand side operand of the binary operator";
    tr "hasRHS" [ Stmt; Expr ] (Some Expr) "the right hand side operand of the binary operator";
    tr "hasEitherOperand" [ Stmt; Expr ] (Some Expr) "either operand of the binary operator";
    tr "hasOperands" [ Stmt; Expr ] (Some Expr) "both operands of the binary operator";
    tr "hasUnaryOperand" [ Expr ] (Some Expr) "the operand of the unary operator";
    tr "hasSourceExpression" [ Expr ] (Some Expr) "the source expression of the cast";
    tr "hasObjectExpression" [ Expr ] (Some Expr) "the object expression of the member access";
    tr "hasTrueExpression" [ Expr ] (Some Expr) "the true branch expression of the conditional operator";
    tr "hasFalseExpression" [ Expr ] (Some Expr) "the false branch expression of the conditional operator";
    tr "hasCaseConstant" [ Stmt ] (Some Expr) "the constant of the case statement";
    tr "forEachSwitchCase" [ Stmt ] (Some Stmt) "each case of the switch statement";
    tr "hasInitializer" [ Decl; Expr ] (Some Expr) "the initializer expression of the variable or init list";
    tr "hasSingleDecl" [ Stmt ] (Some Decl) "the single declaration inside the declaration statement";
    tr "containsDeclaration" [ Stmt ] (Some Decl) "a declaration contained in the declaration statement";
    tr "forEachConstructorInitializer" [ Decl ] (Some Decl) "each constructor initializer of the constructor";
    tr "hasAnyConstructorInitializer" [ Decl ] (Some Decl) "any constructor initializer of the constructor";
    tr "forField" [ Decl ] (Some Decl) "the field the constructor initializer initializes";
    tr "withInitializer" [ Decl ] (Some Expr) "the initializer expression of the constructor initializer";
    tr "hasAnyParameter" [ Decl ] (Some Decl) "any parameter of the function";
    tr "hasParameter" [ Decl ] (Some Decl) "the parameter of the function at some position";
    tr "returns" [ Decl ] (Some Type) "the return type of the function; returning";
    tr "hasReturnValue" [ Stmt ] (Some Expr) "the returned value expression of the return statement";
    tr "hasAnyDeclaration" [ Stmt ] (Some Decl) "any declaration of the declaration statement";
    tr "hasMethod" [ Decl ] (Some Decl) "a method of the class";
    tr "hasAnyBase" [ Decl ] (Some Decl) "any base class of the class";
    tr "hasDirectBase" [ Decl ] (Some Decl) "a direct base class of the class";
    tr "ofClass" [ Expr; Decl ] (Some Decl) "the class the constructor or method belongs to";
    tr "to" [ Expr ] (Some Decl) "the declaration the reference refers to";
    tr "throughUsingDecl" [ Expr ] (Some Decl) "the reference goes through a using declaration";
    tr "member" [ Expr ] (Some Decl) "the member declaration the member access names";
    tr "hasPrefix" [ Decl ] (Some Decl) "the prefix of the nested name specifier";
    tr "hasUnderlyingType" [ Type; Decl ] (Some Type) "the underlying type of the typedef or enum";
    tr "namesType" [ Type ] (Some Type) "the type the elaborated type names";
    tr "pointee" [ Type ] (Some Type) "the pointee type the pointer or reference points to";
    tr "hasElementType" [ Type ] (Some Type) "the element type of the array or complex type";
    tr "hasValueType" [ Type ] (Some Type) "the value type of the atomic type";
    tr "hasDeducedType" [ Type ] (Some Type) "the deduced type of the auto type";
    tr "hasCanonicalType" [ Type ] (Some Type) "the canonical type of the qualified type";
    tr "hasUnqualifiedDesugaredType" [ Type ] (Some Type) "the unqualified desugared type";
    tr "innerType" [ Type ] (Some Type) "the inner type of the paren type";
    tr "hasReplacementType" [ Type ] (Some Type) "the replacement type of the substituted template parameter";
    tr "hasReturnTypeLoc" [ Decl ] (Some Type) "the written return type spelling of the function";
    tr "ignoringImpCasts" [ Expr ] (Some Expr) "the expression ignoring implicit casts around it";
    tr "ignoringParenCasts" [ Expr ] (Some Expr) "the expression ignoring parentheses and casts";
    tr "ignoringParenImpCasts" [ Expr ] (Some Expr) "the expression ignoring parentheses and implicit casts";
    tr "ignoringImplicit" [ Expr ] (Some Expr) "the expression ignoring implicit nodes";
    tr "ignoringElidableConstructorCall" [ Expr ] (Some Expr) "the expression ignoring elidable constructor calls";
    tr "hasDestinationType" [ Expr ] (Some Type) "the destination type of the explicit cast";
    tr "hasImplicitDestinationType" [ Expr ] (Some Type) "the destination type of the implicit cast";
    tr "forFunction" [ Stmt ] (Some Decl) "the function the statement belongs to";
    tr "forCallable" [ Stmt ] (Some Decl) "the callable the statement belongs to";
    tr "alignOfExpr" [ Expr ] (Some Expr) "the alignof expression with the inner matcher";
    tr "sizeOfExpr" [ Expr ] (Some Expr) "the sizeof expression with the inner matcher";
    tr "hasSizeExpr" [ Type ] (Some Expr) "the size expression of the variable length array";
    tr "hasSelector" [ Expr ] (Some Expr) "the selector of the Objective C message";
    tr "hasReceiver" [ Expr ] (Some Expr) "the receiver expression of the Objective C message";
    tr "hasReceiverType" [ Expr ] (Some Type) "the receiver type of the Objective C message";
    tr "hasExplicitSpecifier" [ Decl ] (Some Expr) "the explicit specifier expression of the declaration";
    tr "hasTypeLoc" [ Decl; Expr ] (Some Type) "the written type spelling of the node";
    tr "hasEnumConstant" [ Decl ] (Some Decl) "an enumerator constant of the enum declaration; enumerates";
    tr "hasSpecializedTemplate" [ Decl ] (Some Decl) "the class template this specialization specializes";
    tr "hasQualifier" [ Expr ] (Some Decl) "the nested name qualifier of the reference";
  ]

(* ------------------------------------------------------------------ *)
(* Extended vocabulary: the long tail of the reference                *)
(* ------------------------------------------------------------------ *)
let extended =
  [
    (* additional node matchers *)
    nd "stmtExpr" Expr "a GNU statement expression";
    nd "ompExecutableDirective" Stmt "an OpenMP executable directive";
    nd "requiresExpr" Expr "a C++20 requires expression";
    nd "conceptSpecializationExpr" Expr "a concept specialization expression";
    nd "sourceLocExpr" Expr "a source location builtin expression";
    nd "builtinBitCastExpr" Expr "a builtin bit cast expression";
    nd "cxxAddrspaceCastExpr" Expr "a C++ addrspace cast expression";
    nd "objcBoxedExpr" Expr "an Objective C boxed expression";
    nd "objcArrayLiteral" Expr "an Objective C array literal expression";
    nd "objcDictionaryLiteral" Expr "an Objective C dictionary literal expression";
    nd "objcIvarRefExpr" Expr "an Objective C instance variable reference expression";
    nd "objcSelectorExpr" Expr "an Objective C selector expression";
    nd "objcProtocolExpr" Expr "an Objective C protocol expression";
    nd "arrayInitLoopExpr" Expr "an array initialization loop expression";
    nd "arrayInitIndexExpr" Expr "an array initialization index expression";
    nd "cxxInheritedCtorInitExpr" Expr "an inherited constructor initialization expression";
    nd "usingEnumDecl" Decl "a using enum declaration";
    nd "exportDecl" Decl "a C++20 export declaration";
    nd "importDecl" Decl "a module import declaration";
    nd "emptyDecl" Decl "an empty declaration consisting of a lone semicolon";
    nd "varTemplateDecl" Decl "a variable template declaration";
    nd "externCLanguageLinkageDecl" Decl "a declaration inside an extern C block";
    nd "pointerTypeLoc" Type "a pointer type written location";
    nd "referenceTypeLoc" Type "a reference type written location";
    nd "qualifiedTypeLoc" Type "a qualified type written location";
    nd "templateSpecializationTypeLoc" Type "a template specialization type written location";
    nd "elaboratedTypeLoc" Type "an elaborated type written location";
    nd "dependentNameType" Type "a dependent name type in a template";
    nd "deducedTemplateSpecializationType" Type "a deduced template specialization type";
    nd "objcObjectType" Type "an Objective C object type";
    (* additional narrowing matchers *)
    nw ~lit:Lstr "hasOverloadedOperatorName" [ Expr; Decl ] "the overloaded operator has the given spelling";
    nw ~lit:Lstr "isExpansionInFileMatching" any "the node expands in a file whose path matches the pattern";
    nw ~lit:Lstr "equalsBoundNode" any "the node equals a previously bound node with the given id";
    nw ~lit:Lnum "hasSize" [ Expr; Type ] "the string literal or constant array has the given size";
    nw ~lit:Lnum "designatorCountIs" [ Expr ] "the designated initializer has the given number of designators";
    nw ~lit:Lnum "isAtPosition" [ Decl ] "the parameter sits at the given position of the function";
    nw ~lit:Lnum "equalsIntegralValue" [ Decl; Type ] "the template argument equals the given integral value";
    nw ~lit:Lstr "ofKind" [ Expr ] "the sizeof or alignof expression has the given kind";
    nw "isArray" [ Expr ] "the new or delete expression allocates an array";
    nw "isGlobal" [ Expr ] "the new or delete expression uses the global operator";
    nw "isInTemplateInstantiation" any "the node is inside a template instantiation";
    nw "isInstanceMethod" [ Decl ] "the Objective C method is an instance method";
    nw "isClassMethod" [ Decl ] "the Objective C method is a class method";
    nw "isInstanceMessage" [ Expr ] "the Objective C message is an instance message";
    nw "isClassMessage" [ Expr ] "the Objective C message is a class message";
    nw "hasKeywordSelector" [ Expr ] "the Objective C selector is a keyword selector";
    nw "hasNullSelector" [ Expr ] "the Objective C selector is null";
    nw "hasUnarySelector" [ Expr ] "the Objective C selector is a unary selector";
    nw ~lit:Lnum "numSelectorArgs" [ Expr ] "the Objective C selector takes the given number of arguments";
    nw ~lit:Lstr "hasSelectorName" [ Expr ] "the Objective C selector has the given name";
    nw "isPrivateKind" [ Decl ] "the access specifier introduces a private section";
    nw "isWrittenInBuiltinFile" any "the node is written in a builtin file";
    nw "isMacroID" any "the node's location is inside a macro expansion";
    nw "isOverloadedOperator" [ Decl ] "the function declaration overloads an operator";
    nw "isStaticStorageClass" [ Decl ] "the declaration uses the static storage class";
    nw "isExternStorageClass" [ Decl ] "the declaration uses the extern storage class";
    nw "isConsteval" [ Decl; Stmt ] "the function or if statement is consteval";
    nw "isConstinit" [ Decl ] "the variable is declared constinit";
    nw "isScopedEnum" [ Decl ] "the enum is declared as an enum class";
    nw "isUnscopedEnum" [ Decl ] "the enum is declared without the class keyword";
    nw "isPartialSpecialization" [ Decl ] "the template specialization is partial";
    nw "hasDefaultConstructor" [ Decl ] "the class has a default constructor";
    nw "isAggregate" [ Decl ] "the class is an aggregate";
    nw "isPolymorphic" [ Decl ] "the class is polymorphic; declares or inherits a virtual function";
    nw "isAbstract" [ Decl ] "the class is abstract; has a pure virtual function";
    nw "isEmptyClass" [ Decl ] "the class has no non-static data members";
    nw "isTrivial" [ Decl ] "the class or function is trivial";
    nw "isExplicitObjectMemberFunction" [ Decl ] "the member function takes an explicit object parameter";
    nw "isVolatile" [ Decl ] "the declaration is volatile qualified";
    nw "isRestrict" [ Decl ] "the declaration is restrict qualified";
    nw "isSignedChar" [ Type ] "the type is signed char";
    nw "isUnsignedChar" [ Type ] "the type is unsigned char";
    nw "isVoidPointer" [ Type ] "the type is a pointer to void";
    nw "isRealFloatingPoint" [ Type ] "the type is a real floating point type";
    nw "isStructuredBinding" [ Decl ] "the declaration is a structured binding";
    nw "isParameterPack" [ Decl ] "the declaration is a parameter pack";
    nw "isImplicitCast" [ Expr ] "the cast was inserted implicitly by the compiler";
    nw "hasEllipsis" [ Decl ] "the declaration ends with an ellipsis";
    nw "isUnionType" [ Type ] "the record type is a union";
    nw "isLValue" [ Expr ] "the expression is an lvalue";
    nw "isRValue" [ Expr ] "the expression is an rvalue";
    nw "isPostfix" [ Expr ] "the unary operator is postfix";
    nw "isPrefix" [ Expr ] "the unary operator is prefix";
    (* additional traversal matchers *)
    tr "hasAnyUsingShadowDecl" [ Decl ] (Some Decl) "any shadow declaration the using declaration introduces";
    tr "hasDeclContext" any (Some Decl) "the declaration context the node lives in";
    tr "hasIndex" [ Expr ] (Some Expr) "the index expression of the array subscript";
    tr "hasBase" [ Expr ] (Some Expr) "the base expression of the array subscript";
    tr "hasAnyPlacementArg" [ Expr ] (Some Expr) "any placement argument of the new expression";
    tr "hasPlacementArg" [ Expr ] (Some Expr) "the placement argument of the new expression at some position";
    tr "hasArraySize" [ Expr ] (Some Expr) "the array size expression of the new expression";
    tr "hasStructuredBlock" [ Stmt ] (Some Stmt) "the structured block of the OpenMP directive";
    tr "forEachArgumentWithParam" [ Expr ] (Some Expr) "each argument of the call paired with its parameter";
    tr "forEachOverridden" [ Decl ] (Some Decl) "each method the method overrides";
    tr "forEachLambdaCapture" [ Expr ] (Some Decl) "each capture of the lambda expression";
    tr "hasAnyCapture" [ Expr ] (Some Decl) "any capture of the lambda expression";
    tr "capturesVar" [ Expr ] (Some Decl) "the variable the lambda capture captures";
    tr "refersToDeclaration" [ Decl; Type ] (Some Decl) "the template argument refers to the given declaration";
    tr "refersToType" [ Decl; Type ] (Some Type) "the template argument refers to the given type";
    tr "specifiesType" [ Expr ] (Some Type) "the nested name specifier specifies the given type";
    tr "specifiesNamespace" [ Expr ] (Some Decl) "the nested name specifier specifies the given namespace";
    tr "hasEitherSide" [ Expr ] (Some Expr) "either side of the rewritten binary operator";
    tr "hasInit" [ Stmt ] (Some Stmt) "the initializer of the statement";
    tr "hasSyntacticForm" [ Expr ] (Some Expr) "the syntactic form of the implicit value initialization";
    tr "hasUnderlyingDecl" [ Expr ] (Some Decl) "the underlying declaration of the reference";
    tr "hasTargetDecl" [ Decl ] (Some Decl) "the target declaration of the using shadow declaration";
    tr "hasInitializerList" [ Expr ] (Some Expr) "the initializer list of the expression";
    tr "hasDecayedType" [ Type ] (Some Type) "the decayed type of the adjusted type";
  ]

let all =
  decl_nodes @ stmt_nodes @ expr_nodes @ type_nodes @ narrowing @ traversal
  @ extended
